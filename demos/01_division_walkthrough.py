"""Walk one chain from birth to its first division.

Starts a ten-validator chain with a low membership cap, admits new
validators until the cap trips, and narrates the division round: the
acknowledgement quorum, the randomized membership split, and the exact
message count (n proposals plus n^2 acknowledgement broadcasts).

Run with:  python3 demos/01_division_walkthrough.py
"""

from fractions import Fraction

from splitchain.manager import Ecosystem
from splitchain.model import Role


def main() -> None:
    eco = Ecosystem(seed=42, assignment_scheme="randomized")
    founders = [b"v%03d" % i for i in range(10)]
    for v in founders:
        eco.register_user(v, Role.VALIDATOR)
    sim = eco.create_chain(b"root", founders, alpha=Fraction(1, 2), n_max=14)
    print(f"chain root born with {len(sim.config.validators)} validators,"
          f" quorum {sim.config.quorum}, cap {sim.config.n_max}")

    for i in range(4):
        joiner = b"j%03d" % i
        eco.register_user(joiner, Role.VALIDATOR)
        config = eco.join_chain(joiner, b"root")
        print(f"  {joiner.decode()} joined -> {len(config.validators)}"
              f" validators (quorum now {config.quorum})")

    n = len(eco.chains[b"root"].config.validators)
    before = eco.network.messages_sent
    left, right = eco.divide_chain(b"root")
    sent = eco.network.messages_sent - before
    print(f"\ncap reached: division ran with {sent} messages"
          f" = {n} proposals + {n}^2 acknowledgements")
    for child in (left, right):
        roster = ", ".join(v.decode() for v in child.validators)
        print(f"  {child.chain_id.decode()} ({len(child.validators)}): {roster}")

    print("\nlineage (chain, parent, side, split height):")
    for row in eco.lineage_rows():
        chain, parent, side, height = row
        print(f"  {chain.decode():8s} {parent.decode() or '-':8s}"
              f" {side} {height}")

    print("\nevent log tail:")
    for line in eco.events[-3:]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
