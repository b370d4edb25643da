"""Command-line front end.

Subcommands: rank, verify, split, direct-sum, demo, additivity, triangular,
normalize-d3. All I/O is JSON with 1-based indices. Exit status contract:

    0  success
    2  parse or format error (also used by argparse itself)
    3  enumeration limit exceeded
    4  verification failure (or a falsified equality in a harness run)
    5  precondition violated (includes non-canonical certificate bases)
    6  rank above the requested budget

Outputs are deterministic: the same inputs, seed, and flags produce
byte-identical output.

``main(argv)`` may be called any number of times in one process: the
argument parser is built once, on the first call, and every later call only
parses its arguments with it.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .errors import (
    EnumerationLimitError,
    FormatError,
    PreconditionError,
    SliceRankError,
    VerificationError,
)
from .linalg import PrimeField
from .rank import (
    DEFAULT_ENUMERATION_LIMIT,
    rank_via_cover,
    slice_rank_exact,
    verify_certificate,
)
from .splitting import (
    OptionChoice,
    check_additivity,
    check_triangular,
    levi_civita_obstruction_demo,
    split_certificate,
    split_certificate_distinguished_axis,
)
from .normalize import triangular_normalize
from .serialize import (
    MAX_AXES,
    _rank_result_layout,
    _split_trace_layout,
    certificate_from_obj,
    check_shape,
    decomposition_from_obj,
    dump_json,
    load_json,
    tensor_from_obj,
)
from .tensor import (
    BlockStructure,
    block_component,
    diagonal_tensor,
    direct_sum,
    evaluate_decomposition,
    levi_civita,
    random_tensor,
    random_block_upper_triangular,
)

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_LIMIT = 3
EXIT_VERIFY = 4
EXIT_PRECONDITION = 5
EXIT_BUDGET = 6

# exit status of each error class, read at the first class the error belongs to
_EXIT_CODES = (
    (FormatError, EXIT_FORMAT),
    (EnumerationLimitError, EXIT_LIMIT),
    (VerificationError, EXIT_VERIFY),
    (PreconditionError, EXIT_PRECONDITION),
    (SliceRankError, 1),
)


def _emit(obj, output=None):
    text = dump_json(obj, output)
    if output is None:
        sys.stdout.write(text)


def _parse_blocks(text: str) -> BlockStructure:
    try:
        sizes = tuple(
            tuple(int(x) for x in axis.split(",")) for axis in text.split(";")
        )
    except ValueError:
        raise FormatError(f"cannot parse block sizes {text!r}") from None
    if any(n < 0 for axis in sizes for n in axis):  # refused as check_shape refuses a shape
        raise FormatError(f"block sizes must be nonnegative, got {text!r}")
    blocks = BlockStructure(sizes)
    check_shape(blocks.shape)
    return blocks


def nonnegative_int(text: str) -> int:
    """The argparse type of ``--seed`` and ``--trials``: a negative value exits 2."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise FormatError(f"cannot parse shape {text!r}") from None
    return check_shape(shape)


def cmd_rank(args) -> int:
    t = tensor_from_obj(load_json(args.input))
    if args.method == "cover":
        result = rank_via_cover(t)
    else:
        method = "dual" if args.method == "dual-search" else args.method
        result = slice_rank_exact(t, budget=args.budget, limit=args.limit, method=method)
    _emit(_rank_result_layout(result), args.output)
    return EXIT_BUDGET if result.status == "rank_above_budget" else EXIT_OK


def cmd_verify(args) -> int:
    t = tensor_from_obj(load_json(args.input))
    if not args.certificate and not args.decomposition:
        raise PreconditionError("nothing to verify: pass --certificate or --decomposition")
    if args.certificate:
        cert = certificate_from_obj(load_json(args.certificate), t.field)
        if not verify_certificate(t, cert):
            print("certificate does not annihilate the tensor", file=sys.stderr)
            return EXIT_VERIFY
    if args.decomposition:
        dec = decomposition_from_obj(load_json(args.decomposition), t.field, t.shape)
        value = evaluate_decomposition(dec)
        if value != t:
            print("decomposition does not evaluate to the tensor", file=sys.stderr)
            return EXIT_VERIFY
    print("ok")
    return EXIT_OK


def cmd_split(args) -> int:
    t = tensor_from_obj(load_json(args.input))
    cert = certificate_from_obj(load_json(args.certificate), t.field)
    blocks = _parse_blocks(args.blocks)
    if args.distinguished_axis is not None:
        if not 1 <= args.distinguished_axis <= t.order:
            raise PreconditionError(
                f"distinguished axis {args.distinguished_axis} out of range 1..{t.order}"
            )
        trace = split_certificate_distinguished_axis(
            t, cert, blocks, special_axis=args.distinguished_axis - 1
        )
    else:
        choices = None
        if args.options:
            choices = OptionChoice(tuple(args.options.split(",")))
        trace = split_certificate(cert, blocks, choices)
    layout = _split_trace_layout(trace)
    cert1, cert2 = layout["certificates"]
    d = t.order
    lead = block_component(t, blocks, (0,) * d)
    trail = block_component(t, blocks, (1,) * d)
    if not verify_certificate(lead, cert1) or not verify_certificate(trail, cert2):
        print("derived certificates do not verify against the blocks", file=sys.stderr)
        return EXIT_VERIFY
    _emit(layout, args.output)
    return EXIT_OK


def cmd_direct_sum(args) -> int:
    t1 = tensor_from_obj(load_json(args.left))
    t2 = tensor_from_obj(load_json(args.right))
    if t1.order == t2.order:  # direct_sum refuses other orders itself (exit 5)
        check_shape(tuple(a + b for a, b in zip(t1.shape, t2.shape)))
    total, blocks = direct_sum(t1, t2)
    blocks_obj = [list(axis) for axis in blocks.sizes]
    if args.output:
        dump_json(total, args.output)
        _emit({"output": args.output, "shape": list(total.shape), "blocks": blocks_obj})
    else:
        _emit({"tensor": total, "blocks": blocks_obj})
    return EXIT_OK


def cmd_demo(args) -> int:
    field = PrimeField(args.prime)
    if args.name == "levi-civita":
        _emit(levi_civita(field), args.output)
    elif args.name == "diagonal":
        if args.size is None or args.ones is None:
            raise PreconditionError("diagonal demo needs --size and --ones")
        if args.order >= 2 and 0 <= args.ones <= args.size:
            # diagonal_tensor refuses the other arguments itself (exit 5); the
            # order is capped so that a huge one is refused without building its shape
            check_shape((args.size,) * min(args.order, MAX_AXES + 1))
        t = diagonal_tensor(field, args.size, args.ones, order=args.order)
        _emit(t, args.output)
    elif args.name == "obstruction":
        if args.m is None:
            raise PreconditionError("obstruction demo needs --m")
        if args.m > 0:  # the demo refuses a negative m itself (exit 5)
            check_shape((3 * args.m,) * 3)
        _emit(levi_civita_obstruction_demo(args.m, field), args.output)
    else:
        raise PreconditionError(f"unknown demo {args.name!r}")
    return EXIT_OK


def _run_trials(args, check) -> int:
    """Write the report of ``check`` for each trial's own seeded generator; exit 4 on a violation."""
    violations = 0
    for trial in range(args.trials):
        report = check(np.random.default_rng([args.seed, trial]))
        report["trial"] = trial
        sys.stdout.write(dump_json(report))
        violations += report["status"] == "violation"
    return EXIT_VERIFY if violations else EXIT_OK


def cmd_additivity(args) -> int:
    field = PrimeField(args.prime)
    shape = _parse_shape(args.shape)
    check_shape(tuple(2 * n for n in shape))  # the direct sum of two summands
    return _run_trials(args, lambda rng: check_additivity(
        random_tensor(field, shape, rng), random_tensor(field, shape, rng), limit=args.limit))


def cmd_triangular(args) -> int:
    field = PrimeField(args.prime)
    blocks = _parse_blocks(args.blocks)
    return _run_trials(args, lambda rng: check_triangular(
        random_block_upper_triangular(field, blocks, rng), blocks, limit=args.limit))


def cmd_normalize_d3(args) -> int:
    obj = load_json(args.input)
    if isinstance(obj, list) and not obj:
        _emit({"decomposition": [], "duals": [], "orthogonality_pairs": []}, args.output)
        return EXIT_OK
    dec = decomposition_from_obj(obj)
    normalized = triangular_normalize(dec)
    out = {
        "decomposition": normalized.decomposition,
        "duals": [fam.data for fam in normalized.duals],
        "orthogonality_pairs": [[s + 1, t + 1] for s, t in normalized.orthogonality],
    }
    _emit(out, args.output)
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every call of ``main``.

    Every caller gets the same object, so none may modify it; parsing does not.
    """
    parser = argparse.ArgumentParser(
        prog="slicerank",
        description="Exact slice rank toolkit over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_output(p):
        p.add_argument("--output", "-o", help="write the result to this file instead of stdout")

    p_rank = sub.add_parser("rank", help="compute the exact slice rank of a tensor file")
    p_rank.add_argument("--input", "-i", required=True, help="tensor JSON file")
    p_rank.add_argument("--budget", type=int, default=None, help="give up above this rank")
    p_rank.add_argument(
        "--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT,
        help="enumeration limit for the certificate search",
    )
    p_rank.add_argument(
        "--method", choices=["dual-search", "cover", "matrix"], default="dual-search",
        help="dual-search is exact; cover gives an upper bound, exact on antichain support; "
        "matrix applies to order-2 tensors",
    )
    add_common_output(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_verify = sub.add_parser("verify", help="verify a certificate or decomposition")
    p_verify.add_argument("--input", "-i", required=True, help="tensor JSON file")
    p_verify.add_argument("--certificate", help="certificate JSON file")
    p_verify.add_argument("--decomposition", help="decomposition JSON file")
    p_verify.set_defaults(func=cmd_verify)

    p_split = sub.add_parser("split", help="split a direct-sum certificate into block certificates")
    p_split.add_argument("--input", "-i", required=True, help="tensor JSON file")
    p_split.add_argument("--certificate", required=True, help="certificate JSON file")
    p_split.add_argument(
        "--blocks", required=True,
        help="per-axis block sizes, e.g. '1,1;1,1;1,1' (axes separated by ';')",
    )
    p_split.add_argument(
        "--options", help="per-axis pivot options, e.g. 'first,second,second'"
    )
    p_split.add_argument(
        "--distinguished-axis", type=int, metavar="AXIS",
        help="split under the weaker one-axis support condition, "
        "naming the 1-based distinguished axis",
    )
    add_common_output(p_split)
    p_split.set_defaults(func=cmd_split)

    p_dsum = sub.add_parser("direct-sum", help="form the direct sum of two tensor files")
    p_dsum.add_argument("--left", required=True)
    p_dsum.add_argument("--right", required=True)
    add_common_output(p_dsum)
    p_dsum.set_defaults(func=cmd_direct_sum)

    p_demo = sub.add_parser("demo", help="emit a named example tensor or report")
    p_demo.add_argument("name", choices=["levi-civita", "diagonal", "obstruction"])
    p_demo.add_argument("--prime", type=int, default=3)
    p_demo.add_argument("--size", type=int, help="axis size for the diagonal demo")
    p_demo.add_argument("--ones", type=int, help="number of diagonal ones")
    p_demo.add_argument("--order", type=int, default=3, help="tensor order for the diagonal demo")
    p_demo.add_argument("--m", type=int, help="number of copies for the obstruction demo")
    add_common_output(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    p_add = sub.add_parser("additivity", help="check rank additivity on random direct sums")
    p_add.add_argument("--shape", required=True, help="shape of each summand, e.g. '2,2,2'")
    p_add.add_argument("--prime", type=int, required=True)
    p_add.add_argument("--trials", type=nonnegative_int, required=True)
    p_add.add_argument("--seed", type=nonnegative_int, required=True)
    p_add.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)
    p_add.set_defaults(func=cmd_additivity)

    p_tri = sub.add_parser("triangular", help="check the block-triangular inequality on random tensors")
    p_tri.add_argument("--blocks", required=True, help="per-axis block sizes, e.g. '1,1,1;1,1,1;1,1,1'")
    p_tri.add_argument("--prime", type=int, required=True)
    p_tri.add_argument("--trials", type=nonnegative_int, required=True)
    p_tri.add_argument("--seed", type=nonnegative_int, required=True)
    p_tri.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)
    p_tri.set_defaults(func=cmd_triangular)

    p_norm = sub.add_parser("normalize-d3", help="staircase-normalize an order-3 decomposition")
    p_norm.add_argument("--input", "-i", required=True, help="decomposition JSON file")
    add_common_output(p_norm)
    p_norm.set_defaults(func=cmd_normalize_d3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SliceRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
