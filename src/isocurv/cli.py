"""Command-line front end.

Subcommands: gen | classify | diagnose | identities | fuzz.
Exit codes: 0 success / consistent verdict, 1 inconsistency or I/O failure,
2 usage error.  ``--json PATH`` writes a machine-readable copy of the
report next to the human-readable table on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .canonical import (
    build_conformally_flat,
    build_constant_curvature,
    build_space_form,
    theorem6_identities,
)
from .diagnostics import THEOREMS, TheoremId, equivalence_check, flatness_norms, fuzz
from .docio import TensorDocument, load_document, save_document
from .errors import IsocurvError, NonFiniteTensor
from .model import ModelPoint, Tolerance, hermitian_model
from .planes import (
    Plane,
    PlaneClass,
    classify_holomorphy,
    classify_plane,
    sectional_curvature,
)

USAGE_ERROR = 2


def _parse_vec(text: str, dim: int) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != dim:
        raise IsocurvError(f"expected {dim} components, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise IsocurvError(f"not a number among the components {text!r}") from None


def _write_json(args, payload) -> None:
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


_SHARED_OPTIONS = {
    "--tol": dict(type=float, default=1e-9, help="relative tolerance"),
    "--seed": dict(type=int, default=0, help="sampling seed"),
    "--json": dict(metavar="PATH", help="also write a JSON report to PATH"),
}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_numbers(argv: list) -> list:
    """`argv` with every ``--c -1e3`` written as ``--c=-1e3``: argparse reads
    a separate negative number in exponent form (unlike ``-1`` or ``-0.5``)
    as an option flag."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2 and "=" not in out[-1]
                and arg.startswith("-") and _is_number(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _common(sub, *names):
    """Add the shared options `names` to the subcommand parser `sub`."""
    for name in names:
        sub.add_argument(name, **_SHARED_OPTIONS[name])


def cmd_gen(args) -> int:
    name = args.name
    if args.kind == "const-curv":
        if args.dim is None or args.index is None or args.c is None:
            raise IsocurvError("gen const-curv needs --dim, --index and --c")
        model = ModelPoint(args.dim, args.index)
        tensor = build_constant_curvature(model, args.c)
    elif args.kind == "conf-flat":
        if args.dim is None or args.index is None:
            raise IsocurvError("gen conf-flat needs --dim and --index")
        model = ModelPoint(args.dim, args.index)
        if args.lam is not None:
            if not np.isfinite(args.lam):
                raise NonFiniteTensor("--lam has a NaN or infinite value")
            S = args.lam * model.metric
        else:
            rng = np.random.default_rng(args.seed & ((1 << 63) - 1))  # folded as sample_rng does
            S = rng.uniform(-1.0, 1.0, (args.dim, args.dim))
            S = (S + S.T) / 2.0
        tensor = build_conformally_flat(model, S)
    elif args.kind == "space-form":
        if args.n is not None:
            dim, index = 2 * args.n, 2 * (args.s or 0)
        else:
            if args.dim is None or args.index is None:
                raise IsocurvError("gen space-form needs --n/--s or --dim/--index")
            dim, index = args.dim, args.index
        if args.mu is None or args.nu is None:
            raise IsocurvError("gen space-form needs --mu and --nu")
        model = hermitian_model(dim, index)
        tensor = build_space_form(model, args.nu, args.mu)

    doc = TensorDocument(model, {name: tensor}, meta={"generator": args.kind})
    save_document(doc, args.out)
    print(f"wrote {args.out} ({args.kind}, dim={model.dim}, index={model.index})")
    return 0


def cmd_classify(args) -> int:
    doc = load_document(args.path)
    model = doc.model
    u = _parse_vec(args.u, model.dim)
    v = _parse_vec(args.v, model.dim)
    plane = Plane(u, v)
    tol = Tolerance(args.tol)
    cls = classify_plane(model, plane, tol)
    lines = [f"plane: {cls.value}"]
    payload = {"plane": cls.value}
    if model.has_cplx:
        hol = classify_holomorphy(model, plane, tol)
        lines.append(f"holomorphy: {hol.value}")
        payload["holomorphy"] = hol.value
    if args.tensor:
        if cls is PlaneClass.NONDEGENERATE:
            k = sectional_curvature(model, doc.tensor(args.tensor), plane, tol)
            lines.append(f"K[{args.tensor}]: {k!r}")
            payload["sectional_curvature"] = k
        else:
            lines.append(f"K[{args.tensor}]: undefined (degenerate plane)")
    print("\n".join(lines))
    _write_json(args, payload)
    return 0


def _print_report(rep) -> None:
    for note in rep.side_notes:
        print(f"  {note}")
    print(f"samples: {rep.samples_used}  max residual: {rep.max_residual:.6e}")
    print(f"verdict: {'consistent' if rep.verdict else 'INCONSISTENT'}")


def cmd_diagnose(args) -> int:
    doc = load_document(args.path)
    model = doc.model
    R = doc.tensor(args.tensor)
    tol = Tolerance(args.tol)
    if args.theorem == "flatness":
        payload = vars(flatness_norms(model, R))
        for k, v in payload.items():
            print(f"{k}: {v if v is None else format(v, '.6e')}")
        _write_json(args, payload)
        return 0
    rep = equivalence_check(model, R, TheoremId(args.theorem), args.samples, args.seed, tol)
    print(f"theorem: {args.theorem}")
    _print_report(rep)
    payload = {
        "theorem": args.theorem,
        "max_residual": rep.max_residual,
        "samples_used": rep.samples_used,
        "verdict": rep.verdict,
        "notes": rep.side_notes,
        "witness": None if rep.witness is None else rep.witness.tolist(),
    }
    _write_json(args, payload)
    return 0 if rep.verdict else 1


def cmd_identities(args) -> int:
    doc = load_document(args.path)
    rep = theorem6_identities(doc.model, doc.tensor(args.tensor), args.samples,
                              args.seed, Tolerance(args.tol))
    print(f"basis holomorphic-curvature sum residual: {rep.basis_sum_residual:.6e}")
    print(f"holomorphic K identity residual:          {rep.holomorphic_k_residual:.6e}")
    print(f"mixed-pair identity residual:             {rep.mixed_pair_residual:.6e}")
    print(f"verdict: {'pass' if rep.verdict else 'fail'}")
    _write_json(args, dataclasses.asdict(rep))
    return 0 if rep.verdict else 1


def cmd_fuzz(args) -> int:
    model = hermitian_model(args.dim, args.index) if args.complex else ModelPoint(args.dim, args.index)
    summary = fuzz(model, args.trials, args.seed, args.samples, Tolerance(args.tol))
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_json(args, summary)
    return 0 if not summary["inconsistencies"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: ``parse_args`` leaves it as
    it was, and argparse looks up ``sys.stderr`` when it reports an error."""
    parser = argparse.ArgumentParser(
        prog="isocurv",
        description="Curvature algebra and isotropic-plane diagnostics for indefinite metrics.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a model tensor document")
    gen.add_argument("kind", choices=["const-curv", "conf-flat", "space-form"])
    gen.add_argument("--dim", type=int)
    gen.add_argument("--index", type=int)
    gen.add_argument("--n", type=int, help="complex dimension (space-form)")
    gen.add_argument("--s", type=int, help="complex index (space-form)")
    gen.add_argument("--c", type=float, help="sectional curvature (const-curv)")
    gen.add_argument("--lam", type=float, help="Ricci = lam * g (conf-flat)")
    gen.add_argument("--mu", type=float, help="holomorphic curvature (space-form)")
    gen.add_argument("--nu", type=float, help="antiholomorphic curvature (space-form)")
    gen.add_argument("--name", default="R", help="tensor name in the document")
    gen.add_argument("--out", required=True)
    _common(gen, "--seed")
    gen.set_defaults(func=cmd_gen)

    cls = subs.add_parser("classify", help="classify a 2-plane from a document's model")
    cls.add_argument("path")
    cls.add_argument("--u", required=True, help="first basis vector, comma separated")
    cls.add_argument("--v", required=True, help="second basis vector, comma separated")
    cls.add_argument("--tensor", help="also print sectional curvature of this tensor")
    _common(cls, "--tol", "--json")
    cls.set_defaults(func=cmd_classify)

    diag = subs.add_parser("diagnose", help="run a theorem equivalence check")
    diag.add_argument("path")
    diag.add_argument("--tensor", required=True)
    diag.add_argument("--theorem", required=True,
                      choices=[t.value for t in THEOREMS] + ["flatness"])
    diag.add_argument("--samples", type=int, default=200)
    _common(diag, "--tol", "--seed", "--json")
    diag.set_defaults(func=cmd_diagnose)

    idn = subs.add_parser("identities", help="holomorphic-curvature identity residuals")
    idn.add_argument("path")
    idn.add_argument("--tensor", required=True)
    idn.add_argument("--samples", type=int, default=100)
    _common(idn, "--tol", "--seed", "--json")
    idn.set_defaults(func=cmd_identities)

    fz = subs.add_parser("fuzz", help="random curvature-like tensors through all checks")
    fz.add_argument("--dim", type=int, required=True)
    fz.add_argument("--index", type=int, required=True)
    fz.add_argument("--complex", action="store_true", help="attach the standard J")
    fz.add_argument("--trials", type=int, default=100)
    fz.add_argument("--samples", type=int, default=100)
    _common(fz, "--tol", "--seed", "--json")
    fz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_numbers(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except IsocurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
