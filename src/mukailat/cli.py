"""Command-line front end.

`build_parser` binds each command to one handler, which returns the inputs,
outputs and verification of its report; `run` wraps them in the JSON report
{command, inputs, outputs, verification, status} printed on stdout.  The
verification block re-checks the mathematical claims of the output and any
failed assertion forces a nonzero exit.

Exit codes: 0 success, 1 verification failure, 2 usage error (a
`LatticeError`, which every parser of arguments and JSON files raises on
malformed input, or an `OSError` opening a file: a missing file or a
directory), 3 witness search
exhausted (the radius is echoed in the report), 4 internal error: an
`InvariantError` (a library bug) or any other unexpected exception, a
`KeyError` or `ValueError` included, reported as
{"error": "<Type>: <message>", "status": 4}, with the traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import jsonio, linalg
from .characters import covariance, orientation_char
from .elliptic import even_stabilizer
from .embeddings import DEFAULT_RADIUS, WitnessNotFound, embed_rank2, \
    verify_embedding
from .fourier_mukai import elliptic_phi, mon_twist, verify_sigma_tau_duality
from .lattices import (
    LatticeError,
    build_lattice,
    discriminant_group,
)
from .mukai import mukai_pairing
from .stabilizer import (
    ExtensionKind,
    GeneratorFamily,
    InvariantError,
    classify_minus2,
    aplus_witness,
    disc_action,
    disc_group_order,
    factor,
    in_gamma_v,
    vperp_model,
)


def _spec_lattice(text: str):
    spec = []
    for item in text.split(","):
        item = item.strip()
        if item.startswith("diag(") and item.endswith(")"):
            entries = tuple(jsonio.int_from_text(x, "a diag entry")
                            for x in item[5:-1].split(":"))
            spec.append(("diag", entries))
        else:
            spec.append(item)
    return build_lattice(tuple(spec))


def _int_list(text: str, what: str, count: int) -> tuple[int, ...]:
    """The `count` comma-separated ints of text; LatticeError otherwise."""
    values = tuple(jsonio.int_from_text(x, f"an entry of {what}")
                   for x in text.split(","))
    if len(values) != count:
        raise LatticeError(f"{what} needs {count} comma-separated integers, "
                           f"got {text!r}")
    return values


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        # not JSON, not text, or nested deeper than the decoder recurses
        except (ValueError, RecursionError) as exc:
            raise LatticeError(f"{path} is not a JSON file: {exc}") from None


def _command(subparsers, name, handler, **kwargs):
    """The parser of one command, bound to its handler and to the command
    its report prints: the parser's prog without the program name."""
    parser = subparsers.add_parser(name, **kwargs)
    parser.set_defaults(run=handler, command=parser.prog.split(" ", 1)[1])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mukailat",
        description="Exact computations in the Mukai lattice of a K3 surface",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized subcommands")
    sub = parser.add_subparsers(dest="verb", required=True)

    lat = sub.add_parser("lattice", help="build standard lattices")
    lat_sub = lat.add_subparsers(dest="action", required=True)
    lat_build = _command(lat_sub, "build", _lattice_build)
    lat_build.add_argument("--spec", required=True,
                           help="comma list of blocks, e.g. K3 or U,diag(-6)")
    lat_disc = _command(lat_sub, "disc", _lattice_disc)
    lat_disc.add_argument("--spec", required=True)

    char = _command(sub, "char", _char,
                    help="determinant and covariance characters")
    char.add_argument("--lattice", default="mukai")
    char.add_argument("--isometry", required=True, help="isometry JSON file")

    stab = sub.add_parser("stab", help="the stabilizer of v = (1,0,-m)")
    stab_sub = stab.add_subparsers(dest="action", required=True)
    stab_model = _command(stab_sub, "model", _stab_model)
    stab_model.add_argument("--m", type=int, required=True)
    stab_classify = _command(stab_sub, "classify", _stab_classify)
    stab_classify.add_argument("--m", type=int, required=True)
    stab_classify.add_argument("--vector", required=True,
                               help="Mukai vector JSON file")
    stab_factor = _command(stab_sub, "factor", _stab_factor)
    stab_factor.add_argument("--m", type=int, required=True)
    stab_factor.add_argument("--isometry", required=True)
    stab_factor.add_argument("--normalize", action="store_true")
    stab_order = _command(stab_sub, "disc-order", _stab_disc_order)
    stab_order.add_argument("--m", type=int, required=True)
    stab_aplus = _command(stab_sub, "aplus", _stab_aplus)
    stab_aplus.add_argument("--m", type=int, required=True)
    stab_embed = _command(stab_sub, "embed", _stab_embed)
    stab_embed.add_argument("--lattice", default="k3")
    stab_embed.add_argument("--lambda1", required=True,
                            help="coordinate vector JSON file")
    stab_embed.add_argument("--target", required=True,
                            help="2a,b,2d")
    stab_embed.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    stab_sample = _command(stab_sub, "sample", _stab_sample)
    stab_sample.add_argument("--m", type=int, required=True)
    stab_sample.add_argument("--length", type=int, default=4)

    fm = sub.add_parser("fm", help="Fourier-Mukai isometries")
    fm_sub = fm.add_subparsers(dest="action", required=True)
    fm_phi = _command(fm_sub, "verify-phi", _fm_verify_phi)
    fm_phi.add_argument("--n", type=int, required=True)
    _command(fm_sub, "verify-sigma-tau", _fm_verify_sigma_tau)
    fm_mon = _command(fm_sub, "mon", _fm_mon)
    fm_mon.add_argument("--m", type=int, required=True)
    fm_mon.add_argument("--isometry", required=True)

    ell = sub.add_parser("elliptic", help="elliptic-curve analogue")
    ell_sub = ell.add_subparsers(dest="action", required=True)
    ell_stab = _command(ell_sub, "stab", _elliptic_stab)
    ell_stab.add_argument("--v", required=True, help="r,d")
    ell_stab.add_argument("--test", help="2x2 matrix JSON file")

    return parser


def _check(name, condition):
    return {"name": name, "pass": bool(condition)}


def _checks(checks: dict) -> list:
    """The named checks of a dict that also holds their conjunction."""
    return [_check(name, value) for name, value in checks.items()
            if name != "all"]


def _lattice_build(args):
    lattice = _spec_lattice(args.spec)
    pos, neg = lattice.signature()
    outputs = {
        "lattice": jsonio.lattice_to_json(lattice),
        "rank": lattice.rank,
        "signature": [pos, neg],
        "even": lattice.is_even,
        "determinant": lattice.determinant(),
    }
    verification = [
        _check("gram_symmetric",
               lattice.gram == linalg.transpose(lattice.gram)),
        _check("signature_sums_to_rank", pos + neg == lattice.rank),
    ]
    return {"spec": args.spec}, outputs, verification


def _lattice_disc(args):
    lattice = _spec_lattice(args.spec)
    dg = discriminant_group(lattice)
    outputs = {
        "divisors": list(dg.divisors),
        "order": dg.order,
        "q_values": [str(q) for q in dg.q_values],
        "lifts": [[str(x) for x in lift] for lift in dg.lifts],
    }
    verification = [
        _check("order_equals_det", dg.order == abs(lattice.determinant())),
    ]
    return {"spec": args.spec}, outputs, verification


def _char(args):
    # isometry_from_json rejects a matrix that does not preserve the form
    iso = jsonio.isometry_from_json(_load_json(args.isometry))
    if jsonio.resolve_lattice(args.lattice) != iso.lattice:
        raise LatticeError(f"the isometry is not on the lattice "
                           f"{args.lattice!r}")
    det = iso.det()
    outputs = {"det": det, "cov": orientation_char(iso)}
    verification = [
        _check("is_isometry", True),
        # implied by is_isometry when the lattice is nondegenerate
        _check("det_is_unit", det in (1, -1)),
    ]
    return ({"lattice": args.lattice, "isometry": args.isometry}, outputs,
            verification)


def _stab_model(args):
    model = vperp_model(args.m)
    dg = model.disc_group
    q = dg.q_values[0]
    outputs = {
        "m": args.m,
        "rank": model.lattice.rank,
        "gram_blocks": [b.name for b in model.lattice.blocks],
        "disc_divisors": list(dg.divisors),
        "disc_order": dg.order,
        "q_generator": str(q),
    }
    verification = [
        _check("disc_cyclic_order_2m",
               dg.divisors == (2 * args.m,) and dg.order == 2 * args.m),
        _check("w_square", model.lattice.gram[-1][-1] == -2 * args.m),
        _check("q_of_generator_is_minus_1_over_2m",
               (q - Fraction(-1, 2 * args.m)) % 2 == 0),
    ]
    return {"m": args.m}, outputs, verification


def _stab_classify(args):
    model = vperp_model(args.m)
    v0 = jsonio.mukai_vector_from_json(_load_json(args.vector))
    orbit = classify_minus2(model, v0)
    verification = [
        _check("is_minus2", mukai_pairing(v0, v0) == -2),
        _check("orthogonal_to_v", mukai_pairing(v0, model.v) == 0),
    ]
    return ({"m": args.m, "vector": args.vector}, {"orbit": orbit.value},
            verification)


def _stab_factor(args):
    model = vperp_model(args.m)
    iso = jsonio.isometry_from_json(_load_json(args.isometry))
    # factor raises NotInGammaV when iso does not fix v, and it proves the
    # word's product rather than computing it; the report computes both
    word = factor(model, iso, normalize=args.normalize)
    outputs = {"word": jsonio.word_to_json(word),
               "letters": len(word.letters)}
    verification = [
        _check("product_equals_input", word.product().matrix == iso.matrix),
        _check("fixes_v", iso.fixes(model.v.coords())),
    ]
    if args.normalize:
        verification.append(_check(
            "tau_letters_rank_one",
            all(r in (1, -1) for r in word.tau_ranks()),
        ))
    return ({"m": args.m, "isometry": args.isometry,
             "normalize": args.normalize}, outputs, verification)


def _stab_disc_order(args):
    data = disc_group_order(args.m)
    verification = [
        _check("order_is_2_to_rho", data["order"] == 2 ** data["rho"]),
    ]
    return {"m": args.m}, data, verification


def _stab_aplus(args):
    witness = aplus_witness(args.m)
    if witness is None:
        outputs = {"result": "Impossible"}
        verification = [_check("m_not_1_mod_4", args.m % 4 != 1)]
    else:
        model = vperp_model(args.m)
        outputs = {"result": jsonio.mukai_vector_to_json(witness)}
        verification = [
            _check("square_minus2", mukai_pairing(witness, witness) == -2),
            _check("class_is_aplus",
                   classify_minus2(model, witness).value == "APlus"),
        ]
    return {"m": args.m}, outputs, verification


def _stab_embed(args):
    lattice = jsonio.resolve_lattice(args.lattice)
    lam1 = jsonio.vector_from_json(_load_json(args.lambda1))
    two_a, b, two_d = _int_list(args.target, "--target", 3)
    # embed_rank2 rejects a negative radius before any other work
    lam2 = embed_rank2(lattice, lam1, (two_a, b, two_d), radius=args.radius)
    verification = [
        _check("embedding_contract",
               verify_embedding(lattice, lam1, lam2, two_a, b, two_d)),
    ]
    return ({"lattice": args.lattice, "lambda1": args.lambda1,
             "target": args.target, "radius": args.radius},
            {"lambda2": jsonio.vector_to_json(lam2)}, verification)


def _stab_sample(args):
    model = vperp_model(args.m)
    family = GeneratorFamily(model)
    rng = random.Random(args.seed)
    word = family.sample_word(rng, args.length)
    product = word.product()
    restricted = model.restrict(product)
    verification = [
        _check("fixes_v", product.fixes(model.v.coords())),
        _check("disc_action_trivial",
               disc_action(model, restricted) == 1 % (2 * args.m)),
        _check("in_gamma_v",
               in_gamma_v(model, restricted) is ExtensionKind.IN_GAMMA_V),
        # mon_twist raises unless its image preserves orientation, so
        # W membership comes down to the discriminant action
        _check("mon_image_in_W",
               in_gamma_v(model, mon_twist(model, product))
               is not ExtensionKind.DOES_NOT_EXTEND),
    ]
    return ({"m": args.m, "length": args.length, "seed": args.seed},
            {"word": jsonio.word_to_json(word)}, verification)


def _fm_verify_phi(args):
    phi, checks = elliptic_phi(args.n)
    return ({"n": args.n}, {"phi": jsonio.isometry_to_json(phi, "mukai")},
            _checks(checks))


def _fm_verify_sigma_tau(args):
    return {}, {}, _checks(verify_sigma_tau_duality())


def _fm_mon(args):
    model = vperp_model(args.m)
    iso = jsonio.isometry_from_json(_load_json(args.isometry))
    twisted = mon_twist(model, iso)
    outputs = {
        "cov": covariance(iso),
        "twisted": jsonio.isometry_to_json(twisted, f"vperp:{args.m}"),
    }
    verification = [
        # mon_twist raises unless twisted preserves orientation, so
        # W membership comes down to the discriminant action
        _check("orientation_preserving", True),
        _check("in_W", in_gamma_v(model, twisted)
               is not ExtensionKind.DOES_NOT_EXTEND),
    ]
    return {"m": args.m, "isometry": args.isometry}, outputs, verification


def _elliptic_stab(args):
    r, d = _int_list(args.v, "--v", 2)
    stab = even_stabilizer((r, d))
    outputs = {"generator": [list(row) for row in stab.generator]}
    verification = [
        _check("generator_det_one", linalg.det(stab.generator) == 1),
        _check("generator_fixes_v",
               linalg.mat_vec(stab.generator, (r, d)) == (r, d)),
    ]
    if args.test:
        mat = jsonio.matrix_from_json(_load_json(args.test))
        k = stab.is_power(mat)
        outputs["is_power"] = k is not None
        outputs["exponent"] = k
        verification.append(
            _check("power_reproduces_matrix",
                   k is None or stab.power(k) == mat)
        )
    return {"v": args.v, "test": args.test}, outputs, verification


def run(argv) -> tuple[dict, int]:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        return {"error": "usage", "status": 2}, 2
    try:
        inputs, outputs, verification = args.run(args)
    except WitnessNotFound as exc:
        report = {
            "command": args.verb,
            "error": "WitnessNotFound",
            "radius": exc.radius,
            "status": 3,
        }
        return report, 3
    except InvariantError as exc:
        return _internal_error(exc)
    except (LatticeError, OSError) as exc:
        return {"error": str(exc), "status": 2}, 2
    except Exception as exc:
        return _internal_error(exc)
    status = 0 if all(item["pass"] for item in verification) else 1
    return {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "verification": verification,
        "status": status,
    }, status


def _internal_error(exc: Exception) -> tuple[dict, int]:
    """The exit-4 report of a library bug; its traceback goes to stderr."""
    import traceback  # only on this path: a cold start does not pay for it

    traceback.print_exception(exc, file=sys.stderr)
    return {"error": f"{type(exc).__name__}: {exc}", "status": 4}, 4


def main() -> None:
    report, status = run(sys.argv[1:])
    print(json.dumps(report, indent=2))
    sys.exit(status)


if __name__ == "__main__":
    main()
