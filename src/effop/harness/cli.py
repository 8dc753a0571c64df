"""Command-line interface.

Subcommands: gen, solve-direct, solve-iter, effective, enumerate,
decompose, verify. Success exits 0; validation problems exit 1;
numerical failures exit 2, which ``verify`` returns only when the input's own
eigensolve fails: an error inside its battery is a failing CHECK (exit 1).
Diagnostics go to stderr. Matrices travel
through files in the plain-text format of :mod:`effop.harness.matio`;
flags only carry index sets and real scalars.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import effective as eff
from .. import observables as obsmod
from .. import solver as solvermod
from .. import spaces, tolerances, transform
from ..errors import NumericalError, ValidationError
from . import matio
from .generate import KINDS, PRNG_ID, ProblemSpec, generate
from .verify import run_verification

__all__ = ["main", "build_parser"]


def _indices(text: str) -> tuple[int, ...]:
    try:
        return matio._parse_indices(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _fmt(values, scale) -> str:
    """Complex ``values`` to 12 significant digits, space-separated. An
    imaginary part at most 1e-12 times ``scale``, the largest magnitude of
    the printed set, is dropped, so the choice does not change under O -> cO."""
    floor = 1e-12 * float(scale)
    return " ".join(f"{z.real:.12g}" if abs(z.imag) <= floor else f"{z.real:.12g}{z.imag:+.12g}j"
                    for z in np.asarray(values, dtype=np.complex128).tolist())


def _print_eigenvalues(operator) -> None:
    eigenvalues = np.sort_complex(np.linalg.eigvals(operator.matrix))
    print("O_eff eigenvalues: " + _fmt(eigenvalues, np.abs(eigenvalues).max()))


def _cmd_gen(args) -> int:
    spec = ProblemSpec(
        kind=args.kind,
        dim=args.dim,
        seed=args.seed,
        spectrum=args.spectrum,
        coupling=args.coupling,
        family_size=args.family_size,
    )
    result = generate(spec)
    stamp = [f"kind={spec.kind} dim={spec.dim} seed={spec.seed} prng={PRNG_ID}"]
    out = Path(args.out)
    if spec.kind == "commuting_family":
        for i, member in enumerate(result.members, start=1):
            if out.suffix:
                path = out.with_name(f"{out.stem}.{i}{out.suffix}")
            else:
                path = Path(f"{out}.{i}")
            matio.write_observable(path, member, stamp + [f"member={i}"])
            print(path)
    else:
        matio.write_observable(out, result, stamp)
        print(out)
    return 0


def _cmd_solve_direct(args) -> int:
    obs, _ = matio.read_observable(args.matrix)
    selection = spaces.select_eigenvectors(spaces.eigendecompose(obs), args.j)
    ms = spaces.ModelSpace(obs.dim, args.k)
    dm = transform.construct_s_direct(selection, ms)
    operator = eff.first_type(obs, dm)
    _print_eigenvalues(operator)
    print(f"decoupling residual: {operator.residual:.6e}")
    if args.out_s:
        dm = replace(dm, provenance=replace(dm.provenance, residual=operator.residual))
        matio.write_decoupling_map(args.out_s, dm)
        print(f"s written to {args.out_s}")
    return 0


def _cmd_solve_iter(args) -> int:
    obs, _ = matio.read_observable(args.matrix)
    ms = spaces.ModelSpace(obs.dim, args.k)
    initial = None
    if args.initial_s:
        start = matio.read_decoupling_map(args.initial_s)
        if args.k != start.model_space.indices:
            raise ValidationError(f"--K {args.k} does not match the s-file header "
                                  f"K={start.model_space.indices}")
        initial = start.s
    config = solvermod.SolverConfig(tol=args.tol, max_iter=args.max_iter, initial_s=initial)
    dm, trace = solvermod.solve_decoupling_fixed_point(obs, ms, config)
    for step in trace.steps:
        print(f"iter {step.iteration} residual {step.residual:.6e}")
    print(f"converged in {trace.iterations} iterations; "
          f"residual monotone: {trace.monotone_decreasing}")
    if dm.s.size <= 16:
        scale = np.abs(dm.s).max(initial=0.0)
        for row in dm.s:
            print("s: " + _fmt(row, scale))
    else:
        print(f"s: {dm.s.shape[0]}x{dm.s.shape[1]} matrix, "
              f"norm {np.linalg.norm(dm.s):.6e}")
    _print_eigenvalues(eff.first_type(obs, dm))
    if args.out_s:
        matio.write_decoupling_map(args.out_s, dm)
        print(f"s written to {args.out_s}")
    return 0


def _cmd_effective(args) -> int:
    obs, _ = matio.read_observable(args.matrix)
    dm = matio.read_decoupling_map(args.s)
    kind = "second-type" if args.second_type else "first-type"
    operator = (eff.second_type if args.second_type else eff.first_type)(obs, dm)
    matio.write_effective(args.out, operator, extra_comments=[f"type={kind}"])
    print(f"{kind} operator written to {args.out}")
    return 0


def _cmd_enumerate(args) -> int:
    obs, _ = matio.read_observable(args.matrix)
    decomposition = spaces.eigendecompose(obs)
    selection = spaces.select_eigenvectors(decomposition, args.j)
    for k, cond in spaces.enumerate_model_spaces(selection, args.cond_cap):
        print(f"K={matio._format_indices(k)} cond={cond:.6e}")
    return 0


def _read_plan(path):
    blocks = []
    plan = matio._decode_text(path, Path(path).read_bytes(), ValidationError)
    for ln, text in matio._data_lines([plan], []):
        if not text.startswith("block:"):
            raise ValidationError(f"{path}:{ln}: expected 'block: J=<ids> K=<ids>'")
        fields = matio._parse_fields(text[len("block:"):])
        try:
            j, k = matio._parse_indices(fields["J"]), matio._parse_indices(fields["K"])
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"{path}:{ln}: malformed block line {text!r}") from exc
        blocks.append((j, k))
    if not blocks:
        raise ValidationError(f"{path}: no blocks found")
    return blocks


def _cmd_decompose(args) -> int:
    cset = obsmod.verify_commuting(matio.read_observable(path)[0] for path in args.set.split(","))
    plan = _read_plan(args.plan)
    decomposed = obsmod.decompose_space(cset, [j for j, _ in plan], [k for _, k in plan])
    for r, block in enumerate(decomposed.blocks, start=1):
        worst = max(pair.first.residual for pair in block.pairs)
        print(f"block {r}: J={matio._format_indices(block.indices)} "
              f"K={matio._format_indices(block.decoupling.model_space.indices)} "
              f"max_residual={worst:.6e}")
    for sig, check in enumerate(decomposed.spectrum_checks, start=1):
        word = "pass" if check.matched else "fail"
        print(f"member {sig} spectrum union: {word} max_dev={check.max_deviation:.6e}")
    return 0 if decomposed.complete else 2


def _cmd_verify(args) -> int:
    obs, _ = matio.read_observable(args.matrix)
    report = run_verification(obs, d=args.d, trials=args.trials, seed=args.seed)
    report.provenance["input"] = args.matrix
    if Path(args.matrix).is_file():  # a pipe has nothing left to hash
        report.provenance["input_sha256"] = hashlib.sha256(
            Path(args.matrix).read_bytes()).hexdigest()[:16]
    print(report)
    for line in report.errors.values():
        print(line, file=sys.stderr)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="effop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded problem instance")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--dim", required=True, type=int)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)
    gen.add_argument("--spectrum", type=_floats, default=None,
                     help="planted spectrum, comma separated (planted_spectrum)")
    gen.add_argument("--coupling", type=float, default=0.1,
                     help="off-diagonal coupling (tridiagonal_chain)")
    gen.add_argument("--family-size", type=int, default=2,
                     help="member count (commuting_family)")
    gen.set_defaults(func=_cmd_gen)

    direct = sub.add_parser("solve-direct",
                            help="decoupling map from selected eigenvectors")
    direct.add_argument("--matrix", required=True)
    direct.add_argument("--J", dest="j", required=True, type=_indices)
    direct.add_argument("--K", dest="k", required=True, type=_indices)
    direct.add_argument("--out-s", dest="out_s", default=None)
    direct.set_defaults(func=_cmd_solve_direct)

    solve_iter = sub.add_parser("solve-iter",
                                help="fixed-point solution of the decoupling equation")
    solve_iter.add_argument("--matrix", required=True)
    solve_iter.add_argument("--K", dest="k", required=True, type=_indices)
    solve_iter.add_argument("--tol", type=float, default=solvermod.SolverConfig.tol)
    solve_iter.add_argument("--max-iter", type=int, default=solvermod.SolverConfig.max_iter)
    solve_iter.add_argument("--initial-s", dest="initial_s", default=None,
                            help="s-matrix file used as the starting iterate")
    solve_iter.add_argument("--out-s", dest="out_s", default=None)
    solve_iter.set_defaults(func=_cmd_solve_iter)

    effective = sub.add_parser("effective", help="write an effective-operator file")
    effective.add_argument("--matrix", required=True)
    effective.add_argument("--s", required=True, help="s-matrix file")
    effective.add_argument("--second-type", dest="second_type", action="store_true")
    effective.add_argument("--out", required=True)
    effective.set_defaults(func=_cmd_effective)

    enum = sub.add_parser("enumerate", help="list legitimate model spaces")
    enum.add_argument("--matrix", required=True)
    enum.add_argument("--J", dest="j", required=True, type=_indices)
    enum.add_argument("--cond-cap", dest="cond_cap", type=float, default=tolerances.COND_CAP)
    enum.set_defaults(func=_cmd_enumerate)

    decompose = sub.add_parser("decompose",
                               help="block decomposition of a commuting set")
    decompose.add_argument("--set", required=True,
                           help="comma-separated member matrix files")
    decompose.add_argument("--plan", required=True,
                           help="text file of 'block: J=<ids> K=<ids>' lines")
    decompose.set_defaults(func=_cmd_decompose)

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--matrix", required=True)
    verify.add_argument("--d", type=int, default=None)
    verify.add_argument("--trials", type=int, default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    return parser


_parser = functools.cache(build_parser)  # one per process; every parse starts afresh


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _parser()
    with warnings.catch_warnings():
        # a library warning is a diagnostic line, not a source listing
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except SystemExit as exc:
            # argparse exits 0 after --help and 2 on usage problems; 2 is
            # reserved for numerical failures here, so usage problems exit 1.
            return 1 if exc.code else 0
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
