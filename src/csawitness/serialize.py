"""Canonical JSON serialization for every domain object.

All files are UTF-8 JSON text; writing is canonical (sorted keys, compact
separators, trailing newline) so identical inputs produce byte-identical
files.  Parsing reconstructs objects through their verifying constructors,
so a loaded ideal re-checks closure, a loaded involution re-checks its
axioms, and so on.
"""

import json

from .algebra import Algebra, make_matrix_algebra, make_quaternion, tensor_product
from .errors import InvalidInputError
from .etale import generate_etale
from .fields import field_from_spec, json_get, json_int
from .ideals import Flag, RightIdeal, module_presentation
from .involutions import involution_from_matrix
from .poly import Poly
from .quadrics import QuadraticForm
from .witness import (
    ETALE_LINE, FLAG_PENCIL, IDEAL_PENCIL, PARAM_CONVENTION, QUADRIC_LINE,
    PencilWitness, WitnessChain,
)


def dump_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_canonical(obj))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# scalars and vectors


def _vec_to_json(field, vec):
    return [field.to_json(c) for c in vec]


def _list(value, key):
    """value, checked to be a JSON list; key names where it was read."""
    if not isinstance(value, list):
        raise InvalidInputError(f"{key!r} must hold lists")
    return value


def _vec_from_json(field, data, key):
    return tuple(field.parse(c) for c in _list(data, key))


def _vec_at(field, data, key):
    """The vector stored under key in the JSON object data."""
    return _vec_from_json(field, json_get(data, key, list), key)


def _vecs_at(field, data, key):
    return [_vec_from_json(field, v, key) for v in json_get(data, key, list)]


def _poly_from_json(field, data, key):
    return Poly.from_json(field, _list(data, key))


# ---------------------------------------------------------------------------
# algebras


def algebra_to_json(A):
    kind = A.preset.get("kind", "explicit")
    out = {"field": A.field.spec(), "degree": A.degree, "preset": kind}
    if kind == "matrix":
        out["params"] = {"n": A.preset["n"]}
    elif kind == "quaternion":
        out["params"] = {"a": A.field.to_json(A.preset["a"]),
                         "b": A.field.to_json(A.preset["b"])}
    elif kind == "tensor":
        out["params"] = {"left": algebra_to_json(A.preset["left"]),
                         "right": algebra_to_json(A.preset["right"])}
    else:
        out["preset"] = "explicit"
        out["structure_constants"] = [
            [[[k, A.field.to_json(c)] for k, c in entry] for entry in row]
            for row in A.table]
        out["unit"] = _vec_to_json(A.field, A.unit)
    return out


def algebra_from_json(data):
    field = field_from_spec(json_get(data, "field", dict))
    preset = json_get(data, "preset", str, "explicit")
    if preset == "matrix":
        params = json_get(data, "params", dict)
        return make_matrix_algebra(field, json_get(params, "n", int))
    if preset == "quaternion":
        params = json_get(data, "params", dict)
        return make_quaternion(field, field.parse(json_get(params, "a", object)),
                               field.parse(json_get(params, "b", object)))
    if preset == "tensor":
        params = json_get(data, "params", dict)
        return tensor_product(algebra_from_json(json_get(params, "left", dict)),
                              algebra_from_json(json_get(params, "right", dict)))
    if preset == "explicit":
        table = [[_product_from_json(field, entry)
                  for entry in _list(row, "structure_constants")]
                 for row in json_get(data, "structure_constants", list)]
        unit = json_get(data, "unit", list, None)
        if unit is not None:
            unit = _vec_from_json(field, unit, "unit")
        return Algebra(field, table, json_get(data, "degree", int), unit=unit)
    raise InvalidInputError(f"unknown algebra preset {preset!r}")


def _product_from_json(field, entry):
    """One product e_i e_j: a list of [basis index, scalar] pairs."""
    pairs = []
    for pair in _list(entry, "structure_constants"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InvalidInputError(
                "'structure_constants' terms must be [index, scalar] pairs")
        pairs.append((json_int(pair[0], "structure_constants"), field.parse(pair[1])))
    return tuple(pairs)


def _resolve_algebra(data, algebra=None):
    """A caller-supplied algebra, else the "algebra" entry of data: an inline
    algebra or a {"file": path} reference, read from the working directory
    when relative."""
    if algebra is not None:
        return algebra
    ref = json_get(data, "algebra", dict)
    if "file" in ref:
        return algebra_from_json(load_json(json_get(ref, "file", str)))
    return algebra_from_json(ref)


# ---------------------------------------------------------------------------
# ideals, flags, subalgebras, involutions, forms


def ideal_to_json(I, inline_algebra=True):
    out = {"basis": [_vec_to_json(I.algebra.field, b) for b in I.basis]}
    if inline_algebra:
        out["algebra"] = algebra_to_json(I.algebra)
    return out


def ideal_from_json(data, algebra=None):
    A = _resolve_algebra(data, algebra)
    return RightIdeal(A, _vecs_at(A.field, data, "basis"))


def flag_to_json(flag, inline_algebra=True):
    out = {"ideals": [ideal_to_json(i, inline_algebra=False) for i in flag.ideals],
           "signature": list(flag.signature)}
    if inline_algebra:
        out["algebra"] = algebra_to_json(flag.algebra)
    return out


def flag_from_json(data, algebra=None):
    A = _resolve_algebra(data, algebra)
    ideals = [ideal_from_json(d, algebra=A)
              for d in json_get(data, "ideals", list)]
    flag = Flag(ideals)
    if flag.signature != tuple(json_get(data, "signature", list, flag.signature)):
        raise InvalidInputError("stored signature does not match the ideals")
    return flag


def etale_to_json(E, inline_algebra=True):
    f = E.algebra.field
    out = {"generator": _vec_to_json(f, E.generator.coords)}
    if E.supplied_factors is not None:
        out["minpoly_factors"] = [g.to_json() for g in E.supplied_factors]
    if inline_algebra:
        out["algebra"] = algebra_to_json(E.algebra)
    return out


def etale_from_json(data, algebra=None):
    A = _resolve_algebra(data, algebra)
    gen = A.element(_vec_at(A.field, data, "generator"))
    factors = json_get(data, "minpoly_factors", list, None)
    if factors is not None:
        factors = [_poly_from_json(A.field, g, "minpoly_factors") for g in factors]
    return generate_etale(gen, minpoly_factors=factors)


def involution_to_json(sigma, inline_algebra=True):
    f = sigma.algebra.field
    out = {"matrix": [_vec_to_json(f, row) for row in sigma.mat],
           "type": sigma.kind}
    if inline_algebra:
        out["algebra"] = algebra_to_json(sigma.algebra)
    return out


def involution_from_json(data, algebra=None):
    A = _resolve_algebra(data, algebra)
    return involution_from_matrix(A, _vecs_at(A.field, data, "matrix"),
                                  expected_kind=json_get(data, "type", str, None))


def form_to_json(form):
    out = form.to_json()
    out["field"] = form.field.spec()
    return out


def form_from_json(data):
    field = field_from_spec(json_get(data, "field", dict))
    return QuadraticForm.from_json(field, data)


# ---------------------------------------------------------------------------
# witnesses


def _endpoint_to_json(kind, obj, field):
    if kind == IDEAL_PENCIL:
        return ideal_to_json(obj, inline_algebra=False)
    if kind == FLAG_PENCIL:
        return flag_to_json(obj, inline_algebra=False)
    if kind == ETALE_LINE:
        return etale_to_json(obj, inline_algebra=False)
    return _vec_to_json(field, obj)  # projective point


def _endpoint_from_json(kind, data, algebra, field):
    if kind == IDEAL_PENCIL:
        return ideal_from_json(data, algebra=algebra)
    if kind == FLAG_PENCIL:
        return flag_from_json(data, algebra=algebra)
    if kind == ETALE_LINE:
        return etale_from_json(data, algebra=algebra)
    return _vec_from_json(field, data, "start/end")


def _segment_to_json(w):
    f = w.field
    seg = {"kind": w.kind,
           "start": _endpoint_to_json(w.kind, w.start, f),
           "end": _endpoint_to_json(w.kind, w.end, f),
           "validity": w.validity.to_json(),
           "meta": {k: v for k, v in w.meta.items()}}
    if w.kind in (IDEAL_PENCIL, FLAG_PENCIL):
        seg["pencil_w"] = [_vec_to_json(f, v) for v in w.data["pencil_w"]]
        seg["pencil_w_prime"] = [_vec_to_json(f, v)
                                 for v in w.data["pencil_w_prime"]]
        if w.kind == FLAG_PENCIL:
            seg["levels"] = list(w.data["levels"])
    elif w.kind == ETALE_LINE:
        seg["gen_start"] = _vec_to_json(f, w.data["gen_start"])
        seg["gen_end"] = _vec_to_json(f, w.data["gen_end"])
    elif w.kind == QUADRIC_LINE:
        seg["coord_polys"] = [p.to_json() for p in w.data["coord_polys"]]
        seg["aux"] = _vec_to_json(f, w.data["aux"])
    return seg


def _check_nvars(form, what, **lists):
    """Raise unless each named list has one entry per variable of the form."""
    for key, value in lists.items():
        if len(value) != form.nvars:
            raise InvalidInputError(f"{what} {key} has {len(value)} entries, "
                                    f"but the form has {form.nvars} variables")


def _count_from_json(value, key, least):
    n = json_int(value, key)
    if n < least:
        raise InvalidInputError(f"{key!r} must be at least {least}, not {n}")
    return n


def _bool_from_json(value, key):
    if not isinstance(value, bool):
        raise InvalidInputError(f"{key!r} must be true or false, not {value!r}")
    return value


def _ints_from_json(value, key):
    if not isinstance(value, list):
        raise InvalidInputError(f"{key!r} must be a list of integers, not {value!r}")
    return [json_int(x, key) for x in value]


def _check_pencil_data(algebra, data):
    """Raise unless the pencil vectors come in pairs, each of length m * dim D
    of the algebra's module presentation, and the flag levels are the vector
    counts connect_flags writes: non-empty, at least 0, strictly increasing,
    the last one the number of vectors."""
    w, wp = data["pencil_w"], data["pencil_w_prime"]
    if len(w) != len(wp):
        raise InvalidInputError(f"'pencil_w' has {len(w)} vectors but "
                                f"'pencil_w_prime' has {len(wp)}")
    vlen = module_presentation(algebra).vlen
    for key, vecs in (("pencil_w", w), ("pencil_w_prime", wp)):
        for v in vecs:
            if len(v) != vlen:
                raise InvalidInputError(
                    f"{key!r} holds a vector of length {len(v)}, not {vlen}")
    levels = data.get("levels")
    if levels is not None and (
            not levels or levels[0] < 0 or levels[-1] != len(w)
            or any(a >= b for a, b in zip(levels, levels[1:]))):
        raise InvalidInputError(
            f"'levels' {levels} must be non-empty, at least 0 and strictly "
            f"increasing, and end at the vector count {len(w)}")


# The typed metadata keys a segment may carry.  A zero ideal's pencil
# stores rdim 0; a subalgebra has dimension at least 1.
_META_READERS = {
    "etale_dim": lambda v, key: _count_from_json(v, key, 1),
    "et_m": lambda v, key: _count_from_json(v, key, 1),
    "rdim": lambda v, key: _count_from_json(v, key, 0),
    "maximal": _bool_from_json,
    "signature": _ints_from_json,
}


def _meta_from_json(meta):
    """meta with each typed key read as its type; InvalidInputError names
    the first key of the wrong type.  Other keys are kept as they are."""
    return {key: _META_READERS[key](v, key) if key in _META_READERS else v
            for key, v in meta.items()}


def _segment_from_json(seg, algebra, form):
    kind = json_get(seg, "kind", str)
    if kind in (IDEAL_PENCIL, FLAG_PENCIL, ETALE_LINE):
        if algebra is None:
            raise InvalidInputError(f"a {kind} segment needs an algebra")
        field = algebra.field
    elif kind == QUADRIC_LINE:
        if form is None:
            raise InvalidInputError(f"a {kind} segment needs a form")
        field = form.field
    else:
        raise InvalidInputError(f"unknown segment kind {kind!r}")
    start = _endpoint_from_json(kind, json_get(seg, "start", object), algebra, field)
    end = _endpoint_from_json(kind, json_get(seg, "end", object), algebra, field)
    validity = Poly.from_json(field, json_get(seg, "validity", list))
    meta = _meta_from_json(json_get(seg, "meta", dict, {}))
    if kind in (IDEAL_PENCIL, FLAG_PENCIL):
        data = {"pencil_w": _vecs_at(field, seg, "pencil_w"),
                "pencil_w_prime": _vecs_at(field, seg, "pencil_w_prime")}
        if kind == FLAG_PENCIL:
            data["levels"] = [json_int(x, "levels")
                              for x in json_get(seg, "levels", list)]
        _check_pencil_data(algebra, data)
    elif kind == ETALE_LINE:
        data = {"gen_start": _vec_at(field, seg, "gen_start"),
                "gen_end": _vec_at(field, seg, "gen_end")}
    else:
        data = {"coord_polys": [_poly_from_json(field, p, "coord_polys")
                                for p in json_get(seg, "coord_polys", list)],
                "aux": _vec_at(field, seg, "aux")}
        _check_nvars(form, kind, coord_polys=data["coord_polys"], start=start,
                     end=end, aux=data["aux"])
    return PencilWitness(kind, start, end, validity, data,
                         algebra=algebra, form=form, meta=meta)


def witness_to_json(w, form=None):
    segments = w.segments if isinstance(w, WitnessChain) else (w,)
    if not segments:
        # a trivial chain: identical endpoints, no segments; keep the context
        if form is None:
            raise InvalidInputError("an empty chain needs an explicit form context")
        return {"kind": "empty", "param_convention": PARAM_CONVENTION,
                "segments": [], "form": form_to_json(form),
                "start": _vec_to_json(form.field, w.start),
                "end": _vec_to_json(form.field, w.end)}
    first = segments[0]
    out = {"kind": first.kind,
           "param_convention": PARAM_CONVENTION,
           "segments": [_segment_to_json(s) for s in segments]}
    if first.algebra is not None:
        out["algebra"] = algebra_to_json(first.algebra)
    if first.form is not None:
        out["form"] = form_to_json(first.form)
    return out


def witness_from_json(data):
    if not isinstance(data, dict):
        raise InvalidInputError("a witness file must hold a JSON object")
    if data.get("param_convention") != PARAM_CONVENTION:
        raise InvalidInputError(
            f"unsupported parameter convention {data.get('param_convention')!r}")
    if "algebra" not in data and "form" not in data:
        raise InvalidInputError("witness has neither an algebra nor a form")
    algebra = json_get(data, "algebra", dict, None)
    if algebra is not None:
        algebra = algebra_from_json(algebra)
    form = json_get(data, "form", dict, None)
    if form is not None:
        form = form_from_json(form)
    if data.get("kind") == "empty":
        if form is None:
            raise InvalidInputError("an empty chain needs a form")
        start = _vec_at(form.field, data, "start")
        end = _vec_at(form.field, data, "end")
        _check_nvars(form, "empty chain", start=start, end=end)
        return WitnessChain([], start=start, end=end)
    segments = [_segment_from_json(s, algebra, form)
                for s in json_get(data, "segments", list)]
    if len(segments) == 1:
        return segments[0]
    return WitnessChain(segments)
