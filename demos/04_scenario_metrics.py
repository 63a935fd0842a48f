"""Run the packaged growth scenario and digest its metrics.

Loads the bundled figure1 scenario (one chain growing under a 20% faulty
join stream, dividing at twenty validators), runs it once, and prints the
division tree plus the fault-rebalancing table read from the run's `divide`
events: each division should land its children's expected faulty ratio
exactly halfway between the parent's birth ratio and the join-stream ratio.

Run with:  python3 demos/04_scenario_metrics.py
"""

from fractions import Fraction
from importlib import resources

from splitchain.scenario import run_scenario


def main() -> None:
    text = (resources.files("splitchain") / "scenarios" / "figure1.mit") \
        .read_text()
    report = run_scenario(text, seed=1)

    print(f"final chains: {len(report.final_chains)};"
          f" divisions: {len(report.divisions)};"
          f" messages: {report.messages_total}")

    print("\ndivision tree:")
    for chain, parent, side, height in report.lineage:
        indent = "  " * chain.count(".")
        note = f"  (side {side} of {parent}'s split at height {height})" \
            if parent else ""
        print(f"  {indent}{chain}{note}")

    print("\nrebalancing at each division"
          " (beta_div vs (beta_birth + beta_join)/2):")
    beta_join = Fraction(1, 5)
    for d in (divide.fields for divide in report.divisions):
        birth = Fraction(d["f_birth"], d["n_birth"])
        division = Fraction(d["f"], d["n"])
        predicted = (birth + beta_join) / 2
        mark = "=" if division == predicted else "!"
        print(f"  {d['parent'].decode():12s} birth {str(birth):>5}"
              f" -> division {str(division):>5}"
              f"  predicted {str(predicted):>5}  [{mark}]")

    over = len(report.bound_violations)
    print(f"\nchains born at or past their fault bound: {over}"
          f" (expected occasionally: the split is a random halving)")


if __name__ == "__main__":
    main()
