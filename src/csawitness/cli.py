"""Command-line front end.

One verb per construction keeps the certificate trail legible.  All
randomness flows from --seed; identical inputs and seed give byte-identical
outputs.  Machine-readable results go to files (--out); stdout carries a
short human summary and stderr the diagnostics.

Exit codes: 0 success / verified; 1 verification failed (a valid run with a
negative result); 2 invalid input; 3 field too small or budget exhausted.
"""

import functools
import random
import sys

import click

from . import serialize
from .algebra import (
    index_evidence, make_matrix_algebra, make_quaternion, tensor_product,
    NoWitnessFound,
)
from .arith import pi_degree_prime_to_p, vp_factorial
from .errors import (
    BudgetExceededError, CsawError, FieldTooSmallError, InvalidInputError,
)
from .etale import etale_type, generate_etale, random_maximal_etale
from .fields import json_get, parse_field_flag
from .ideals import ideal_generated, random_flag, random_ideal
from .involutions import (
    adjoint_degree, adjoint_involution, involution_type, quaternion_conjugation,
    standard_alternating_matrix, transpose_involution,
)
from .pointcount import (
    GrassmannianModel, InvolutionQuadricModel, QuadricCurves, QuadricModel,
    enumerate_points, link_graph,
)
from .witness import (
    connect_exp2, connect_flags, connect_ideals, connect_max_etale,
    connect_quadric_points, default_samples, verify_witness,
)

EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_TOO_SMALL = 3


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (FieldTooSmallError, BudgetExceededError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_TOO_SMALL)
        except (CsawError, OSError, KeyError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INVALID)
    return wrapper


def _load_algebra(path):
    return serialize.algebra_from_json(serialize.load_json(path))


def _parse_scalars(field, text):
    return tuple(field.parse(tok) for tok in text.split(";")) \
        if ";" in text else tuple(field.parse(tok) for tok in text.split(","))


@click.group()
def main():
    """Exact witnesses for ideals, separable subalgebras and zero cycles of
    central simple algebras."""


# ---------------------------------------------------------------------------
# algebra


@main.group()
def algebra():
    """Construct and inspect structure-constant algebras."""


@algebra.command("new")
@click.option("--preset", type=click.Choice(["matrix", "quaternion", "tensor"]),
              required=True)
@click.option("--field", "field_flag", default="q", show_default=True,
              help="q | fp:<p> | fq:<p>:<k>")
@click.option("--n", type=int, default=None, help="matrix size")
@click.option("--a", default=None, help="first quaternion parameter")
@click.option("--b", default=None, help="second quaternion parameter")
@click.option("--left", default=None, help="left tensor factor file")
@click.option("--right", default=None, help="right tensor factor file")
@click.option("--out", required=True, type=click.Path())
@handle_errors
def algebra_new(preset, field_flag, n, a, b, left, right, out):
    field = parse_field_flag(field_flag)
    if preset == "matrix":
        if n is None:
            raise InvalidInputError("--n is required for matrix presets")
        A = make_matrix_algebra(field, n)
    elif preset == "quaternion":
        if a is None or b is None:
            raise InvalidInputError("--a and --b are required for quaternions")
        A = make_quaternion(field, field.parse(a), field.parse(b))
    else:
        if left is None or right is None:
            raise InvalidInputError("--left and --right are required for tensors")
        A = tensor_product(_load_algebra(left), _load_algebra(right))
    serialize.save_json(serialize.algebra_to_json(A), out)
    click.echo(f"wrote degree-{A.degree} algebra to {out}")


@algebra.command("show")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@handle_errors
def algebra_show(algebra_path):
    A = _load_algebra(algebra_path)
    click.echo(f"field: {A.field!r}")
    click.echo(f"degree: {A.degree}  dimension: {A.dim}")
    click.echo(f"preset: {A.preset.get('kind')}")
    click.echo(f"basis: {' '.join(A.labels)}")


@algebra.command("index-evidence")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--bound", type=int, default=50, show_default=True)
@handle_errors
def algebra_index_evidence(algebra_path, bound):
    A = _load_algebra(algebra_path)
    w = index_evidence(A, search_bound=bound)
    if isinstance(w, NoWitnessFound):
        click.echo(f"no splitting witness up to height {bound} "
                   "(not a proof of division)")
        sys.exit(EXIT_VERIFY_FAILED)
    click.echo(f"split witness: ({w.x!r}) * ({w.y!r}) = 0")


# ---------------------------------------------------------------------------
# ideals


@main.group()
def ideal():
    """Right ideals: random construction, generation, checking."""


@ideal.command("random")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--rdim", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@handle_errors
def ideal_random(algebra_path, rdim, seed, out):
    A = _load_algebra(algebra_path)
    I = random_ideal(A, rdim, random.Random(seed))
    serialize.save_json(serialize.ideal_to_json(I), out)
    click.echo(f"wrote rdim-{I.rdim} ideal to {out}")


@ideal.command("generate")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--element", "elements", multiple=True, required=True,
              help="comma-separated coordinates; repeatable")
@click.option("--out", required=True, type=click.Path())
@handle_errors
def ideal_generate(algebra_path, elements, out):
    A = _load_algebra(algebra_path)
    gens = [A.element(_parse_scalars(A.field, e)) for e in elements]
    I = ideal_generated(gens)
    serialize.save_json(serialize.ideal_to_json(I), out)
    click.echo(f"wrote rdim-{I.rdim} ideal to {out}")


@ideal.command("check")
@click.option("--ideal", "ideal_path", required=True, type=click.Path())
@handle_errors
def ideal_check(ideal_path):
    I = serialize.ideal_from_json(serialize.load_json(ideal_path))
    click.echo(f"valid right ideal, rdim {I.rdim} of degree {I.algebra.degree}")


# ---------------------------------------------------------------------------
# flags


@main.group()
def flag():
    """Flags of right ideals."""


@flag.command("random")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--signature", required=True,
              help="strictly increasing reduced dimensions, comma-separated")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@handle_errors
def flag_random(algebra_path, signature, seed, out):
    A = _load_algebra(algebra_path)
    try:
        sig = [int(tok) for tok in signature.split(",")]
    except ValueError:
        raise InvalidInputError(
            f"signature {signature!r} is not a comma-separated list of integers") from None
    fl = random_flag(A, sig, random.Random(seed))
    serialize.save_json(serialize.flag_to_json(fl), out)
    click.echo(f"wrote flag of signature {list(fl.signature)} to {out}")


# ---------------------------------------------------------------------------
# involutions


@main.group()
def involution():
    """Involutions of the first kind."""


@involution.command("new")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--form", "form_kind",
              type=click.Choice(["transpose", "alternating", "conjugation"]),
              required=True)
@click.option("--out", required=True, type=click.Path())
@handle_errors
def involution_new(algebra_path, form_kind, out):
    A = _load_algebra(algebra_path)
    if form_kind == "transpose":
        s = transpose_involution(A)
    elif form_kind == "alternating":
        s = adjoint_involution(A, standard_alternating_matrix(A.field, adjoint_degree(A)))
    else:
        s = quaternion_conjugation(A)
    serialize.save_json(serialize.involution_to_json(s), out)
    click.echo(f"wrote {s.kind} involution to {out}")


@involution.command("type")
@click.option("--involution", "inv_path", required=True, type=click.Path())
@handle_errors
def involution_type_cmd(inv_path):
    s = serialize.involution_from_json(serialize.load_json(inv_path))
    click.echo(involution_type(s))


# ---------------------------------------------------------------------------
# etale subalgebras


@main.group()
def etale():
    """Separable commutative subalgebras."""


@etale.command("generate")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--element", default=None, help="generator coordinates")
@click.option("--random-maximal", is_flag=True, default=False)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@handle_errors
def etale_generate(algebra_path, element, random_maximal, seed, out):
    A = _load_algebra(algebra_path)
    if random_maximal:
        E = random_maximal_etale(A, random.Random(seed))
    elif element is not None:
        E = generate_etale(A.element(_parse_scalars(A.field, element)))
    else:
        raise InvalidInputError("need --element or --random-maximal")
    serialize.save_json(serialize.etale_to_json(E), out)
    click.echo(f"wrote dim-{E.dim} subalgebra to {out}")


@etale.command("type")
@click.option("--subalgebra", "sub_path", required=True, type=click.Path())
@handle_errors
def etale_type_cmd(sub_path):
    E = serialize.etale_from_json(serialize.load_json(sub_path))
    click.echo(str(list(etale_type(E).parts)))


# ---------------------------------------------------------------------------
# witnesses


@main.group()
def witness():
    """Rational-curve witness constructors."""


def _load_endpoints(algebra_path, from_path, to_path, reader):
    """The two endpoint files, each read by reader against the one algebra."""
    A = _load_algebra(algebra_path)
    return (reader(serialize.load_json(from_path), algebra=A),
            reader(serialize.load_json(to_path), algebra=A))


def _write_witness(w, out, form=None):
    serialize.save_json(serialize.witness_to_json(w, form=form), out)
    nseg = len(w.segments) if hasattr(w, "segments") else 1
    click.echo(f"wrote witness ({nseg} segment{'s' if nseg != 1 else ''}) to {out}")


@witness.command("connect-ideals")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--from", "from_path", required=True, type=click.Path())
@click.option("--to", "to_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@handle_errors
def witness_connect_ideals(algebra_path, from_path, to_path, out):
    I1, I2 = _load_endpoints(algebra_path, from_path, to_path,
                             serialize.ideal_from_json)
    _write_witness(connect_ideals(I1, I2), out)


@witness.command("connect-flags")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--from", "from_path", required=True, type=click.Path())
@click.option("--to", "to_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@handle_errors
def witness_connect_flags(algebra_path, from_path, to_path, out):
    f1, f2 = _load_endpoints(algebra_path, from_path, to_path,
                             serialize.flag_from_json)
    _write_witness(connect_flags(f1, f2), out)


@witness.command("connect-etale")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--from", "from_path", required=True, type=click.Path())
@click.option("--to", "to_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@handle_errors
def witness_connect_etale(algebra_path, from_path, to_path, seed, out):
    E1, E2 = _load_endpoints(algebra_path, from_path, to_path,
                             serialize.etale_from_json)
    _write_witness(connect_max_etale(E1, E2, rng_seed=seed), out)


@witness.command("connect-exp2")
@click.option("--algebra", "algebra_path", required=True, type=click.Path())
@click.option("--from", "from_path", required=True, type=click.Path())
@click.option("--to", "to_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@handle_errors
def witness_connect_exp2(algebra_path, from_path, to_path, seed, out):
    E1, E2 = _load_endpoints(algebra_path, from_path, to_path,
                             serialize.etale_from_json)
    _write_witness(connect_exp2(E1, E2, rng_seed=seed), out)


@witness.command("connect-quadric")
@click.option("--form", "form_path", required=True, type=click.Path())
@click.option("--p1", required=True, help="comma-separated coordinates")
@click.option("--p2", required=True)
@click.option("--out", required=True, type=click.Path())
@handle_errors
def witness_connect_quadric(form_path, p1, p2, out):
    form = serialize.form_from_json(serialize.load_json(form_path))
    a = _parse_scalars(form.field, p1)
    b = _parse_scalars(form.field, p2)
    chain = connect_quadric_points(form, a, b)
    _write_witness(chain, out, form=form)


# ---------------------------------------------------------------------------
# verify


@main.command("verify")
@click.option("--witness", "witness_path", required=True, type=click.Path())
@click.option("--exhaustive", is_flag=True, default=False,
              help="check pencils and etale lines at every element of a "
                   "finite base field; conic segments are certified for "
                   "every t without samples")
@click.option("--samples", default=None, help="comma-separated parameters")
@click.option("--out", default=None, type=click.Path())
@handle_errors
def verify_cmd(witness_path, exhaustive, samples, out):
    w = serialize.witness_from_json(serialize.load_json(witness_path))
    segments = w.segments if hasattr(w, "segments") else (w,)
    ts = None  # a trivial chain has no parameter, only its endpoints_equal
    if segments:
        field = segments[0].field
        if exhaustive and samples is None and field.size is None:
            raise InvalidInputError("--exhaustive needs a finite base field")
        ts = ([field.parse(tok) for tok in samples.split(",")] if samples is not None
              else default_samples(field))
    report = verify_witness(w, ts)
    if out:
        serialize.save_json(report.to_json(), out)
    if not segments and report.passed:
        click.echo("trivial chain: endpoints coincide; pass")
        return
    status = "pass" if report.passed else "FAIL"
    click.echo(f"{status}: {len(report.checks)} checks")
    for name, detail in report.failures():
        click.echo(f"  failed: {name} {detail}", err=True)
    if not report.passed:
        sys.exit(EXIT_VERIFY_FAILED)


# ---------------------------------------------------------------------------
# enumeration and the linkage graph


def _build_model(kind, form_path, field_flag, k, m):
    if kind == "grassmannian":
        if field_flag is None:
            raise InvalidInputError("--field is required for grassmannian models")
        return GrassmannianModel(parse_field_flag(field_flag), k, m)
    if form_path is None:
        raise InvalidInputError("--form is required for quadric models")
    data = serialize.load_json(form_path)
    if kind == "quadric":
        return QuadricModel(serialize.form_from_json(data))
    if kind == "involution-quadric":
        form = serialize.form_from_json(data)
        field = form.field
        hyper = [field.parse(c) for c in json_get(data, "hyperplane", list)]
        return InvolutionQuadricModel(form, hyper)
    raise InvalidInputError(f"unknown model kind {kind!r}")


@main.command("enumerate")
@click.option("--model", "model_kind", required=True,
              type=click.Choice(["quadric", "grassmannian", "involution-quadric"]))
@click.option("--form", "form_path", default=None, type=click.Path())
@click.option("--field", "field_flag", default=None,
              help="base field for grassmannian models")
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--m", type=int, default=4, show_default=True)
@click.option("--degree", type=int, default=1, show_default=True)
@click.option("--out", required=True, type=click.Path())
@handle_errors
def enumerate_cmd(model_kind, form_path, field_flag, k, m, degree, out):
    model = _build_model(model_kind, form_path, field_flag, k, m)
    pts = enumerate_points(model, degree)
    payload = {"model": model.to_json(), "degree": degree,
               "points": [{"degree": pt.degree,
                           "coords": [model.field_at(pt.degree).to_json(c)
                                      for c in pt.coords]}
                          for pt in pts]}
    serialize.save_json(payload, out)
    click.echo(f"enumerated {len(pts)} closed points of degree dividing {degree}")


@main.command("hgraph")
@click.option("--model", "model_kind", required=True,
              type=click.Choice(["quadric"]))
@click.option("--form", "form_path", required=True, type=click.Path())
@click.option("--n", type=int, required=True, help="cycle degree")
@click.option("--out", required=True, type=click.Path())
@handle_errors
def hgraph_cmd(model_kind, form_path, n, out):
    model = _build_model(model_kind, form_path, None, 0, 0)
    report = link_graph(model, n, QuadricCurves(model))
    serialize.save_json(report.to_json(), out)
    click.echo(f"{len(report.vertices)} vertices, {len(report.edges)} edges, "
               f"{report.components} component(s)")
    if not report.connected:
        sys.exit(EXIT_VERIFY_FAILED)


# ---------------------------------------------------------------------------
# arithmetic identities


@main.group()
def arith():
    """Big-integer identities used by index arguments."""


@arith.command("vp")
@click.option("--p", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--out", default=None, type=click.Path())
@handle_errors
def arith_vp(p, r, out):
    v = vp_factorial(p, r)
    if out:
        serialize.save_json({"p": p, "r": r, "vp_factorial": v}, out)
    click.echo(str(v))


@arith.command("pidegree")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--out", default=None, type=click.Path())
@handle_errors
def arith_pidegree(n, m, p, out):
    degree, prime_to_p = pi_degree_prime_to_p(n, m, p)
    if out:
        serialize.save_json({"n": n, "m": m, "p": p, "degree": str(degree),
                             "prime_to_p": prime_to_p}, out)
    click.echo(f"{degree} prime_to_{p}={prime_to_p}")


if __name__ == "__main__":
    main()
