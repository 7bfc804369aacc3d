"""Command-line interface.

Every subcommand takes flags or a JSON config file: the file's values replace
the subcommand's defaults, and flags given on the command line win over both.
Structured output is JSON on stdout (never NaN), experiment tables go to CSV
files.  With --check, commands that assert something exit nonzero when the
assertion fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import kernel
from .combinat import (
    Path,
    parse_permutation,
    path_from_types,
    find_standard,
    is_complete,
    is_neat,
    is_positive,
    rauzy_class,
)
from .errors import AlgorithmStopped, PrecisionExhausted
from .harness import (
    dichotomy_check,
    dichotomy_experiment,
    derive_seed,
    parse_phi,
    target_measure_sweep,
    volume_mc_many,
    write_dichotomy_csv,
    zorich_growth_estimate,
)
from .iet import EXACT, IET, Triple
from .induction import InductionState, zorich_step
from .reduction import all_decorated_classes, decorated_class
from .triples import (
    build_reference_path,
    detect,
    enumerate_targets,
    enumerate_targets_B,
    liouville_builder,
    produce_triples,
)


def _rat(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _load_iet(args) -> IET:
    if args.iet:
        text = args.iet
        if not text.lstrip().startswith("{"):
            with open(text) as handle:
                text = handle.read()
        return IET.from_json(text)
    raise SystemExit("an --iet JSON (inline or file path) is required")


def parse_args(parser: argparse.ArgumentParser, argv=None) -> argparse.Namespace:
    """Parse argv; a --config file's values replace the subcommand's
    defaults, and flags on the command line win over the file.

    A flag the subcommand requires may come from the file, so with a file
    argparse's own required check is held off until the file has been read;
    a required flag that neither gives is reported with argparse's message.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    if probe.parse_known_args(argv)[0].config is None:
        return parser.parse_args(argv)
    required = _required_actions(parser)
    for action in required:
        action.required = False
    try:
        args = parser.parse_args(argv)
        with open(args.config) as handle:
            data = json.load(handle)
        defaults = {key.replace("-", "_"): value for key, value in data.items()}
        unknown = [key for key in defaults if key not in vars(args) or key in ("fn", "subparser")]
        if unknown:
            parser.error(f"{args.config}: unknown options {', '.join(unknown)}")
        args.subparser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    finally:
        for action in required:
            action.required = True
    missing = ["/".join(a.option_strings) for a in required
               if a in args.subparser._actions and getattr(args, a.dest) is None]
    if missing:
        args.subparser.error(f"the following arguments are required: {', '.join(missing)}")
    return args


def _required_actions(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    """The flags that some subcommand of ``parser`` marks required."""
    return [
        action
        for group in parser._subparsers._group_actions
        for sub in group.choices.values()
        for action in sub._actions
        if action.required
    ]


def cmd_class(args) -> int:
    cls = rauzy_class(parse_permutation(args.perm))
    data = {
        "size": len(cls),
        "elements": [str(p) for p in cls.elements],
        "standard": str(find_standard(cls)),
        "x": cls.letter_x(),
        "y": cls.letter_y(),
    }
    print(json.dumps(data, indent=2))
    return 0


def cmd_reduce(args) -> int:
    perm = parse_permutation(args.perm)
    colors = set(args.colors.split(","))
    dc = decorated_class(perm, colors)
    data = {
        "colors": sorted(colors),
        "members": [str(p) for p in dc.members],
        "classification": {str(p): dc.classification[p] for p in dc.members},
        "essential": dc.is_essential_class(),
    }
    if dc.is_essential_class():
        data["arcs"] = [
            {
                "start": str(a.start),
                "types": a.type_string(),
                "winner": a.arrows[0].winner,
                "end": str(a.end),
            }
            for a in dc.arcs
        ]
        data["reduced_alphabet"] = list(dc.reduced_letters)
        data["reduced_class"] = [str(p) for p in dc.reduced_class.elements]
        data["reduction"] = {str(k): str(v) for k, v in dc.red_perm.items()}
    print(json.dumps(data, indent=2))
    return 0


def cmd_induct(args) -> int:
    iet = _load_iet(args)
    trace = []
    if args.mode == "zorich":
        current = iet
        for _ in range(args.steps):
            try:
                current, count = zorich_step(current)
            except (AlgorithmStopped, PrecisionExhausted) as stop:
                trace.append({"stopped": str(stop)})
                break
            trace.append(
                {
                    "count": count,
                    "perm": str(current.perm),
                    "lengths": {a: str(v) for a, v in current.lengths.items()},
                }
            )
    else:
        state = InductionState(iet)
        for _ in range(args.steps):
            try:
                arrow = state.rauzy_step()
            except (AlgorithmStopped, PrecisionExhausted) as stop:
                trace.append({"stopped": str(stop)})
                break
            current = (
                state.current.normalized() if args.mode == "normalized" else state.current
            )
            trace.append(
                {
                    "arrow": arrow.kind,
                    "winner": arrow.winner,
                    "loser": arrow.loser,
                    "perm": str(current.perm),
                    "q": dict(state.q),
                    "l": dict(state.l),
                    "h": dict(state.h),
                    "lengths": {a: str(v) for a, v in current.lengths.items()},
                }
            )
    print(json.dumps({"mode": args.mode, "trace": trace}, indent=2))
    return 0


def cmd_detect(args) -> int:
    iet = _load_iet(args)
    result = detect(iet, Triple(args.beta, args.alpha, args.n))
    data = {
        "triple": [args.beta, args.alpha, args.n],
        "steps": len(result.path),
        "path": result.path.type_string(),
        "gap": _rat(result.gap),
        "last_winner": result.last_winner,
        "q": result.q,
    }
    print(json.dumps(data, indent=2))
    return 0


def cmd_produce(args) -> int:
    iet = _load_iet(args)
    cls = rauzy_class(iet.perm)
    ref = build_reference_path(cls, iet.perm, args.beta, args.alpha)
    rows = produce_triples(iet, ref, args.steps)
    data = {
        "reference_path": ref.path.type_string(),
        "kind": ref.pair_kind,
        "produced": [
            {
                "n": n,
                "gap_letter": letter,
                "gap": _rat(gap) if iet.backend == EXACT else repr(gap),
                "reduced": flag,
                "step": r,
            }
            for n, letter, gap, flag, r in rows
        ],
    }
    print(json.dumps(data, indent=2))
    return 0


def cmd_targets(args) -> int:
    perm = parse_permutation(args.perm)
    eps = Fraction(args.epsilon)
    if args.kind == "E":
        fam = enumerate_targets(perm, args.letter, eps, args.depth)
    else:
        cls = rauzy_class(perm)
        ref = build_reference_path(cls, perm, args.beta, args.alpha)
        if ref.pair_kind != "B":
            raise SystemExit("pair does not have the second-kind structure")
        fam = enumerate_targets_B(ref.target_context(), eps, args.depth)
    data = {
        "kind": fam.kind,
        "epsilon": _rat(fam.epsilon),
        "members": [p.type_string() for p in fam.paths],
        "mass": _rat(fam.mass),
        "undecided_mass": _rat(fam.undecided_mass),
        "complement_mass": _rat(fam.complement.mass),
        "complement_size": len(fam.complement.paths),
    }
    print(json.dumps(data, indent=2))
    return 0


def cmd_volume_mc(args) -> int:
    perm = parse_permutation(args.perm)
    path = path_from_types(perm, args.path) if args.path else Path(perm)
    row = volume_mc_many(perm, [path], args.samples, args.seed)[0]
    data = dict(row)
    data["volume"] = _rat(data["volume"])
    print(json.dumps(data, indent=2))
    if args.check and abs(row["z"]) > 4:
        print("CHECK FAILED: |z| > 4", file=sys.stderr)
        return 1
    return 0


def cmd_dichotomy(args) -> int:
    perm = parse_permutation(args.perm)
    report = dichotomy_experiment(
        perm,
        [args.phi_convergent, args.phi_divergent],
        args.samples,
        args.n_max,
        args.seed,
        workers=args.workers,
    )
    if args.out:
        with open(args.out, "w", newline="") as handle:
            write_dichotomy_csv(report, handle)
    summary = {
        "grid": report["grid"],
        "families": report["families"],
    }
    print(json.dumps(summary, indent=2, default=str))
    if args.check:
        failures = dichotomy_check(report)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


def cmd_zorich_estimate(args) -> int:
    perm = parse_permutation(args.perm)
    cls = rauzy_class(perm)
    ref = build_reference_path(cls, perm, args.beta, args.alpha)
    result = zorich_growth_estimate(ref, args.samples, args.steps, args.seed)
    result["reference_path"] = ref.path.type_string()
    print(json.dumps(result, indent=2, allow_nan=False))
    return 0


def cmd_liouville(args) -> int:
    perm = parse_permutation(args.perm)
    cls = rauzy_class(perm)
    phi = parse_phi(args.phi)
    iet, certificates = liouville_builder(cls, perm, phi, args.rounds)
    data = {
        "iet": json.loads(iet.to_json()),
        "certificates": [
            {
                "beta": beta,
                "alpha": alpha,
                "n": n,
                "gap": _rat(gap),
                "bound": _rat(bound),
            }
            for beta, alpha, n, gap, bound in certificates
        ],
    }
    print(json.dumps(data, indent=2))
    return 0


def cmd_bench(args) -> int:
    import random

    impls = kernel.implementations()
    perm = parse_permutation(args.perm)
    letters = perm.letters
    index = {a: i for i, a in enumerate(letters)}
    top = [index[a] for a in perm.top]
    bot = [index[a] for a in perm.bottom]
    phi = parse_phi(args.phi)
    rng = random.Random(args.seed)
    batches = []
    for _ in range(args.samples):
        raw = [rng.expovariate(1.0) for _ in letters]
        total = sum(raw)
        batches.append([v / total for v in raw])
    report = {"backend_active": kernel.BACKEND, "samples": args.samples, "n_max": args.n_max}
    results = {}
    for name, impl in impls:
        t0 = time.perf_counter()
        checksum = 0
        for vec in batches:
            status, cands, steps = impl.scan_solutions(
                top, bot, vec, args.n_max, phi.kernel_spec, 1e-12, 10**6
            )
            checksum += status + len(cands) + steps
            for beta_i, alpha_i, n, _ in cands:
                impl.reduced_check(top, bot, vec, beta_i, alpha_i, n, 1e-12)
        elapsed = time.perf_counter() - t0
        results[name] = {"seconds": elapsed, "checksum": checksum}
        report[name] = results[name]
    if len(results) == 2:
        report["speedup"] = results["pure"]["seconds"] / max(
            results["compiled"]["seconds"], 1e-12
        )
        report["agreement"] = results["pure"]["checksum"] == results["compiled"]["checksum"]
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ietk",
        description="Exact interval-exchange dynamics and approximation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn, subparser=p)
        p.add_argument("--config", help="JSON file supplying defaults for flags")
        return p

    p = add("class", cmd_class, help="enumerate a Rauzy class")
    p.add_argument("--perm", required=True)

    p = add("reduce", cmd_reduce, help="decorated class and reduction")
    p.add_argument("--perm", required=True)
    p.add_argument("--colors", required=True, help="comma-separated winner letters")

    p = add("induct", cmd_induct, help="run the induction and trace it")
    p.add_argument("--iet", help="IET JSON (inline or a file path)")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--mode", choices=["plain", "normalized", "zorich"], default="plain")

    p = add("detect", cmd_detect, help="detect one approximation triple")
    p.add_argument("--iet")
    p.add_argument("--beta", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("produce", cmd_produce, help="produce triples along a reference path")
    p.add_argument("--iet")
    p.add_argument("--beta", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--steps", type=int, default=200)

    p = add("targets", cmd_targets, help="enumerate shrinking-target families")
    p.add_argument("--perm", required=True)
    p.add_argument("--kind", choices=["E", "EB"], default="E")
    p.add_argument("--letter", help="avoided letter (kind E)")
    p.add_argument("--beta", help="pair letter (kind EB)")
    p.add_argument("--alpha", help="pair letter (kind EB)")
    p.add_argument("--epsilon", required=True, help="exact rational, e.g. 1/8")
    p.add_argument("--depth", type=int, default=None)

    p = add("volume-mc", cmd_volume_mc, help="Monte Carlo check of a path volume")
    p.add_argument("--perm", required=True)
    p.add_argument("--path", default="", help="type string over t/b")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument("--check", action="store_true")

    p = add("dichotomy", cmd_dichotomy, help="convergent/divergent counting experiment")
    p.add_argument("--perm", default="ABCD/DCBA")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--n-max", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--phi-convergent", default="1/(n*log(n+1)^2)")
    p.add_argument("--phi-divergent", default="1/(n*log(n+1))")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--check", action="store_true")

    p = add("zorich-estimate", cmd_zorich_estimate, help="growth-rate estimate")
    p.add_argument("--perm", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--seed", type=int, default=20240601)

    p = add("liouville", cmd_liouville, help="build a certified well-approximable IET")
    p.add_argument("--perm", required=True)
    p.add_argument("--phi", default="1/n^2")
    p.add_argument("--rounds", type=int, default=3)

    p = add("bench", cmd_bench, help="compare pure and compiled kernels")
    p.add_argument("--perm", default="ABCD/DCBA")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--n-max", type=int, default=10_000)
    p.add_argument("--phi", default="1/(n*log(n+1))")
    p.add_argument("--seed", type=int, default=20240601)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parse_args(parser, argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
