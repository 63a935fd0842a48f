"""Command-line front end.

Five subcommands: ``simulate`` runs a scenario file and writes CSV/log
reports, ``analyze`` sweeps the division-violation curves to CSV,
``divide-demo`` and ``xfer-demo`` run small narrated end-to-end flows, and
``verify-proof`` checks a serialized knowledge proof against a registry
snapshot. All randomness flows from ``--seed``, so every subcommand is
byte-for-byte reproducible.

Exit codes: 0 success (for verify-proof: verdict 1); 1 verify-proof
verdict 0; 2 unusable input (bad flags, a seed outside [-2**127, 2**127),
malformed scenario/params/files, an --out that cannot be written);
3 scenario run observed a safety violation; 4 scenario run stopped early
because a chain lost its quorum (reports cover the run up to the stall).
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .crypto import KeyedVerifier, check_seed
from .errors import ConfigError, SplitchainError
from .manager import Ecosystem, render_events
from .model import Asset, Role, quorum_size, record
from .scenario import LINEAGE_HEADER, csv_text, parse_scenario, run_scenario


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _seed(text: str) -> int:
    """--seed: an integer that crypto.derive_seed can encode."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    try:
        return check_seed(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write_files(outdir, files: dict, make_dir: bool = True) -> bool:
    """Write {name: str or bytes} into outdir, made first if missing and
    make_dir; False, with the failing path printed, when that fails."""
    target = outdir = Path(outdir)
    try:
        if make_dir:
            outdir.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            target = outdir / name
            if isinstance(data, bytes):
                target.write_bytes(data)
            else:
                target.write_text(data)
    except OSError as exc:
        _err(f"cannot write {target}: {exc}")
        return False
    return True


# --- analyze ---------------------------------------------------------------------


def sweep_csv(rows, include_mc: bool) -> str:
    """Render sweep rows to the documented CSV schema.

    Rationals (alpha, beta, exact) are written in full precision as p/q;
    bound and Monte Carlo columns are floats; bound cells are empty where
    the bound's premise (realized faulty ratio below alpha) fails.
    """
    header = ["n", "alpha", "beta", "f", "exact", "bound_single",
              "bound_combined"]
    if include_mc:
        header += ["mc_freq", "mc_stderr"]
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row.n), str(row.alpha), str(row.beta), str(row.f),
                 str(row.exact),
                 "" if row.bound_single is None else repr(row.bound_single),
                 "" if row.bound_combined is None else repr(row.bound_combined)]
        if include_mc:
            cells += [repr(row.mc_freq), repr(row.mc_stderr)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    # analysis imports numpy; only this subcommand pays for that import, as
    # only xfer-demo and verify-proof pay for xchain's
    from .analysis import InvalidParams, default_beta_grid, sweep_curves

    try:
        alpha = Fraction(args.alpha)
        n_list = [int(part) for part in args.n.split(",") if part.strip()]
        if not n_list:
            raise ValueError("--n needs at least one chain size")
        grid = default_beta_grid(alpha, args.beta_steps)
        rows = sweep_curves(n_list, alpha, beta_grid=grid,
                            trials=args.trials, seed=args.seed)
    except (InvalidParams, ValueError, ZeroDivisionError) as exc:
        _err(str(exc))
        return 2
    text = sweep_csv(rows, include_mc=args.trials > 0)
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    out = Path(args.out)
    if not _write_files(out.parent, {out.name: text}, make_dir=False):
        return 2
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# --- simulate --------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    try:
        text = Path(args.scenario).read_text()
    except OSError as exc:
        _err(f"cannot read scenario: {exc}")
        return 2
    try:
        spec = parse_scenario(text)
        report = run_scenario(spec, seed=args.seed)
    except ConfigError as exc:
        _err(str(exc))
        return 2
    if not _write_files(args.out, {"metrics.csv": report.metrics_csv(),
                                   "lineage.csv": report.lineage_csv(),
                                   "events.log": report.events_log()}):
        return 2
    print(f"{len(report.final_chains)} chains after {len(report.divisions)}"
          f" divisions; {report.messages_total} messages;"
          f" {len(report.bound_violations)} chains born beyond the fault"
          f" bound")
    if report.safety_violations:
        for line in report.safety_violations:
            _err(f"safety violation: {line}")
        return 3
    if report.stalled is not None:
        _err(f"run stopped early: {report.stalled}")
        return 4
    return 0


# --- demos -----------------------------------------------------------------------


def _cmd_divide_demo(args) -> int:
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        _err(str(exc))
        return 2
    n = args.validators
    eco = Ecosystem(seed=args.seed, assignment_scheme=args.scheme)
    validators = [b"v%03d" % i for i in range(n)]
    for v in validators:
        eco.register_user(v, Role.VALIDATOR)
    try:
        sim = eco.create_chain(b"demo", validators, alpha=alpha, kind="cft",
                               n_max=n)
    except (SplitchainError, ValueError) as exc:
        _err(str(exc))
        return 2
    before = eco.network.messages_sent
    print(f"chain demo: {n} validators, alpha={alpha},"
          f" quorum={sim.config.quorum}")
    c1, c2 = eco.divide_chain(b"demo")
    messages = eco.network.messages_sent - before
    print(f"division complete after {messages} messages"
          f" ({n} proposals + {n * n} acknowledgements)")
    for child in (c1, c2):
        names = ", ".join(v.decode() for v in child.validators)
        print(f"  {child.chain_id.decode()}: {names}")
    if args.out:
        if not _write_files(args.out, {
                "lineage.csv": csv_text(LINEAGE_HEADER, eco.lineage_rows()),
                "events.log": render_events(eco.events)}):
            return 2
        print(f"wrote lineage.csv and events.log to {args.out}")
    return 0


def _registry_snapshot(eco: Ecosystem, chain_id: bytes) -> dict:
    config = eco.chains[chain_id].config
    validators = []
    for v in config.validators:
        pk = eco.users[v].public_key
        validators.append({
            "id": v.hex(),
            "public_key": pk.hex(),
            "verification_key": eco.scheme.verification_key(pk).hex(),
        })
    return {
        "chain": chain_id.hex(),
        "alpha": str(config.consensus.alpha),
        "kind": config.consensus.kind,
        "validators": validators,
    }


def _cmd_xfer_demo(args) -> int:
    from .xchain import toa_claim, toa_lock, toa_resolve

    eco = Ecosystem(seed=args.seed)
    for i in range(4):
        eco.register_user(b"s%03d" % i, Role.VALIDATOR)
        eco.register_user(b"t%03d" % i, Role.VALIDATOR)
    eco.register_user(b"alice", Role.CLIENT)
    eco.register_user(b"bob", Role.CLIENT)
    eco.create_chain(b"src", [b"s%03d" % i for i in range(4)], [b"alice"],
                     n_max=64, initial_assets=[Asset(b"coin", b"alice", 7)])
    eco.create_chain(b"dst", [b"t%03d" % i for i in range(4)], [b"bob"],
                     n_max=64)

    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    claim = toa_claim(eco, b"bob", b"dst", lock)
    outcome = toa_resolve(eco, b"src", claim)

    lines = [
        f"lock proof: {lock.inner.size_bytes} bytes,"
        f" {len(lock.inner.certificate.signatures)} signatures",
        f"claim leg: {claim.kind}"
        f" ({claim.inner.size_bytes} byte proof)",
        f"resolve on src: {outcome}",
        f"coin now on dst, owner"
        f" {eco.chains[b'dst'].state.assets[b'coin'].owner.decode()}",
    ]
    if not _write_files(args.out, {
            "lock_proof.bin": lock.inner.to_bytes(),
            "registry.json": json.dumps(_registry_snapshot(eco, b"src"),
                                        indent=2, sort_keys=True) + "\n",
            "transfer.log": "\n".join(lines + ["", "-- event log --", ""])
                            + render_events(eco.events)}):
        return 2
    for line in lines:
        print(line)
    print(f"wrote lock_proof.bin and registry.json to {args.out}")
    return 0


# --- verify-proof ------------------------------------------------------------------


@record
class _RegistrySnapshot:
    """The validators and quorum a verified proof is judged against."""

    validators: tuple
    quorum: int


def _load_registry(path: str):
    data = json.loads(Path(path).read_text())
    validators = tuple(bytes.fromhex(v["id"]) for v in data["validators"])
    if len(set(validators)) != len(validators):
        raise ValueError("registry lists duplicate validators")
    keys = {bytes.fromhex(v["id"]): bytes.fromhex(v["verification_key"])
            for v in data["validators"]}
    alpha = Fraction(data["alpha"])
    snapshot = _RegistrySnapshot(validators,
                                 quorum_size(len(validators), alpha))
    return snapshot, KeyedVerifier(keys)


def _cmd_verify_proof(args) -> int:
    from .xchain import KnowledgeProof, tok_verify_proof

    try:
        proof = KnowledgeProof.from_bytes(Path(args.proof).read_bytes())
    except (OSError, ValueError) as exc:
        _err(f"cannot parse proof: {exc}")
        return 2
    try:
        snapshot, verifier = _load_registry(args.registry)
    except (OSError, ValueError, KeyError, TypeError,
            ZeroDivisionError) as exc:
        _err(f"cannot parse registry: {exc}")
        return 2
    height = args.height if args.height is not None else proof.tag.issued_height
    verdict, reason = tok_verify_proof(proof, proof.tag, snapshot, height,
                                       verifier.verify)
    if verdict == 1:
        print("verdict 1")
        return 0
    print(f"verdict 0: {reason}")
    return 1


# --- argument wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitchain",
        description="Deterministic chain division simulator and analyzer.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("--scenario", required=True, help="scenario file path")
    sim.add_argument("--seed", type=_seed, default=None,
                     help="override the scenario's seed")
    sim.add_argument("--out", default="out",
                     help="directory for metrics.csv/lineage.csv/events.log")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="sweep violation-probability curves")
    ana.add_argument("--alpha", required=True, help="fault threshold, e.g. 1/2")
    ana.add_argument("--n", required=True,
                     help="comma-separated chain sizes, e.g. 10,40,50,100")
    ana.add_argument("--beta-steps", type=int, default=10,
                     help="points on the faulty-ratio grid (default 10)")
    ana.add_argument("--trials", type=int, default=0,
                     help="Monte Carlo trials per point (0 = exact only)")
    ana.add_argument("--seed", type=_seed, default=0)
    ana.add_argument("--out", default="-", help="CSV path, - for stdout")
    ana.set_defaults(func=_cmd_analyze)

    dd = sub.add_parser("divide-demo", help="narrated single division")
    dd.add_argument("--validators", type=int, default=10)
    dd.add_argument("--alpha", default="1/2")
    dd.add_argument("--scheme", choices=["randomized", "deterministic"],
                    default="randomized")
    dd.add_argument("--seed", type=_seed, default=0)
    dd.add_argument("--out", default="",
                    help="optional directory for lineage.csv/events.log")
    dd.set_defaults(func=_cmd_divide_demo)

    xd = sub.add_parser("xfer-demo",
                        help="narrated cross-chain transfer; emits proof files")
    xd.add_argument("--seed", type=_seed, default=0)
    xd.add_argument("--out", default="xfer-out",
                    help="directory for lock_proof.bin/registry.json")
    xd.set_defaults(func=_cmd_xfer_demo)

    vp = sub.add_parser("verify-proof",
                        help="check a serialized proof against a registry")
    vp.add_argument("--proof", required=True, help="proof file (canonical bytes)")
    vp.add_argument("--registry", required=True, help="registry snapshot JSON")
    vp.add_argument("--height", type=int, default=None,
                    help="verifier chain height (default: tag issue height)")
    vp.set_defaults(func=_cmd_verify_proof)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
