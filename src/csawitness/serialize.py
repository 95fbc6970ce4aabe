"""Canonical JSON serialization for every domain object.

All files are UTF-8 JSON text; writing is canonical (sorted keys, compact
separators, trailing newline) so identical inputs produce byte-identical
files.  Parsing reconstructs objects through their verifying constructors,
so a loaded ideal re-checks closure, a loaded involution re-checks its
axioms, and so on.

The exception is the ideal and flag endpoints of a witness, loaded without
the closure check: verify_witness certifies them in its endpoint_start and
endpoint_end entries, which rebuild each endpoint from the pencil, closed by
construction, and require it to equal the stored one.  So a stored endpoint
that is not a right ideal fails verification there.  A lone ideal or flag
still checks closure on load.
"""

import json

from .algebra import Algebra, make_matrix_algebra, make_quaternion, tensor_product
from .errors import InvalidInputError
from .etale import generate_etale
from .fields import field_from_spec, json_get, json_int
from .ideals import Flag, RightIdeal
from .involutions import involution_from_matrix
from .poly import Poly
from .quadrics import QuadraticForm
from .witness import (
    FLAG, IDEAL, KINDS, PARAM_CONVENTION, POLYS, SUBALGEBRA, VECTOR, VECTORS,
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
    return tuple(map(field.parse, _list(data, key)))


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
    if preset == "explicit":
        table = [[_product_from_json(field, entry)
                  for entry in _list(row, "structure_constants")]
                 for row in json_get(data, "structure_constants", list)]
        unit = json_get(data, "unit", list, None)
        if unit is not None:
            unit = _vec_from_json(field, unit, "unit")
        return Algebra(field, table, json_get(data, "degree", int), unit=unit)
    if preset == "matrix":
        params = json_get(data, "params", dict)
        A = make_matrix_algebra(field, json_get(params, "n", int))
    elif preset == "quaternion":
        params = json_get(data, "params", dict)
        A = make_quaternion(field, field.parse(json_get(params, "a", object)),
                            field.parse(json_get(params, "b", object)))
    elif preset == "tensor":
        params = json_get(data, "params", dict)
        A = tensor_product(algebra_from_json(json_get(params, "left", dict)),
                           algebra_from_json(json_get(params, "right", dict)))
    else:
        raise InvalidInputError(f"unknown algebra preset {preset!r}")
    degree = json_get(data, "degree", int, A.degree)
    if degree != A.degree:
        raise InvalidInputError(
            f"'degree' {degree} does not match the {preset} preset's degree {A.degree}")
    return A


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


def ideal_from_json(data, algebra=None, _skip_closure_check=False):
    """The ideal of a JSON object; each basis row must have dim A entries
    (a flag's ideals and a witness's ideal endpoints are read here too)."""
    A = _resolve_algebra(data, algebra)
    basis = _vecs_at(A.field, data, "basis")
    for row in basis:
        if len(row) != A.dim:
            raise InvalidInputError(f"'basis' holds a vector of length {len(row)}, not {A.dim}")
    return RightIdeal(A, basis, _skip_closure_check)


def flag_to_json(flag, inline_algebra=True):
    out = {"ideals": [ideal_to_json(i, inline_algebra=False) for i in flag.ideals],
           "signature": list(flag.signature)}
    if inline_algebra:
        out["algebra"] = algebra_to_json(flag.algebra)
    return out


def flag_from_json(data, algebra=None, _skip_closure_check=False):
    A = _resolve_algebra(data, algebra)
    ideals = [ideal_from_json(d, A, _skip_closure_check)
              for d in json_get(data, "ideals", list)]
    flag = Flag(ideals)
    if flag.signature != tuple(json_get(data, "signature", list, flag.signature)):
        raise InvalidInputError("stored signature does not match the ideals")
    return flag


def etale_to_json(E, inline_algebra=True):
    f = E.algebra.field
    out = {"generator": _vec_to_json(f, E.generator.coords)}
    if inline_algebra:
        out["algebra"] = algebra_to_json(E.algebra)
    return out


def etale_from_json(data, algebra=None):
    A = _resolve_algebra(data, algebra)
    gen = A.element(_vec_from_json(A.field, json_get(data, "generator", list), "generator"))
    return generate_etale(gen)


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


def _value_to_json(shape, value, field):
    if shape == IDEAL:
        return ideal_to_json(value, inline_algebra=False)
    if shape == FLAG:
        return flag_to_json(value, inline_algebra=False)
    if shape == SUBALGEBRA:
        return etale_to_json(value, inline_algebra=False)
    if shape == VECTOR:
        return _vec_to_json(field, value)
    if shape == VECTORS:
        return [_vec_to_json(field, v) for v in value]
    if shape == POLYS:
        return [p.to_json() for p in value]
    return list(value)  # INTS


def _value_from_json(shape, value, key, ctx):
    # ideals and flags here are witness endpoints (see the module docstring)
    if shape == IDEAL:
        return ideal_from_json(value, ctx, _skip_closure_check=True)
    if shape == FLAG:
        return flag_from_json(value, ctx, _skip_closure_check=True)
    if shape == SUBALGEBRA:
        return etale_from_json(value, algebra=ctx)
    if shape == VECTOR:
        return _vec_from_json(ctx.field, value, key)
    if shape == VECTORS:
        return [_vec_from_json(ctx.field, v, key) for v in _list(value, key)]
    if shape == POLYS:
        return [_poly_from_json(ctx.field, p, key) for p in _list(value, key)]
    return _ints_from_json(value, key)  # INTS


def _values_from_json(src, keys, ctx, size, what):
    """{key: value} for the (key, shape) pairs keys of the JSON object src.
    A vector, each vector of a list, and a polynomial list must have size
    entries; what names src in the message over a form."""
    out = {}
    for key, shape in keys:
        value = out[key] = _value_from_json(shape, json_get(src, key, object), key, ctx)
        for n in ([len(value)] if shape in (VECTOR, POLYS)
                  else [len(v) for v in value] if shape == VECTORS else []):
            if n != size:
                raise InvalidInputError(
                    f"{what} {key} has {n} entries, but the form has {size} variables"
                    if isinstance(ctx, QuadraticForm)
                    else f"{key!r} holds a vector of length {n}, not {size}")
    return out


def _segment_to_json(w):
    kind, f = w.record, w.field
    seg = {key: _value_to_json(shape, w.data[key], f) for key, shape in kind.keys}
    seg.update(kind=w.kind, start=_value_to_json(kind.endpoint, w.start, f),
               end=_value_to_json(kind.endpoint, w.end, f),
               validity=w.validity.to_json(), meta=dict(w.meta))
    return seg


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


# The typed metadata keys a segment may carry; each kind's record names
# the ones it reads (meta_keys).  A zero ideal's pencil stores rdim 0; a
# subalgebra has dimension at least 1.
_META_READERS = {
    "etale_dim": lambda v, key: _count_from_json(v, key, 1),
    "et_m": lambda v, key: _count_from_json(v, key, 1),
    "rdim": lambda v, key: _count_from_json(v, key, 0),
    "maximal": _bool_from_json,
    "signature": _ints_from_json,
}


def _meta_from_json(meta, kind):
    """meta with each key read as its type; InvalidInputError names the
    first key that kind's record does not declare, or that has the wrong
    type."""
    for key in meta:
        if key not in kind.meta_keys:
            raise InvalidInputError(
                f"a {kind.tag} segment's meta has no key {key!r}"
                f" (it may hold {', '.join(kind.meta_keys) or 'none'})")
    return {key: _META_READERS[key](v, key) for key, v in meta.items()}


def _segment_from_json(seg, context, ctx):
    tag = json_get(seg, "kind", str)
    kind = KINDS.get(tag)
    if kind is None:
        raise InvalidInputError(f"unknown segment kind {tag!r}")
    if kind.context != context:
        raise InvalidInputError(f"a {tag} segment needs the witness's {kind.context}")
    data = _values_from_json(seg, (("start", kind.endpoint), ("end", kind.endpoint)) + kind.keys,
                             ctx, kind.size(ctx), tag)
    start, end = data.pop("start"), data.pop("end")
    kind.check_data(data)
    return PencilWitness(tag, start, end,
                         Poly.from_json(ctx.field, json_get(seg, "validity", list)), data,
                         meta=_meta_from_json(json_get(seg, "meta", dict, {}), kind),
                         **{context: ctx})


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
    context = first.record.context
    ctx = getattr(first, context)
    return {"kind": first.kind, "param_convention": PARAM_CONVENTION,
            "segments": [_segment_to_json(s) for s in segments],
            context: form_to_json(ctx) if context == "form" else algebra_to_json(ctx)}


def witness_from_json(data):
    """A witness file holds one context, an algebra or a form, and segments
    unless its kind is "empty", and then the kind of its first segment."""
    if not isinstance(data, dict):
        raise InvalidInputError("a witness file must hold a JSON object")
    if data.get("param_convention") != PARAM_CONVENTION:
        raise InvalidInputError(
            f"unsupported parameter convention {data.get('param_convention')!r}")
    if ("algebra" in data) == ("form" in data):
        raise InvalidInputError("a witness holds one context: an algebra or a form")
    context = "form" if "form" in data else "algebra"
    ctx = (form_from_json if "form" in data else algebra_from_json)(json_get(data, context, dict))
    kind = data.get("kind")
    if kind == "empty":
        if context != "form":
            raise InvalidInputError("an empty chain needs a form")
        ends = _values_from_json(data, (("start", VECTOR), ("end", VECTOR)), ctx,
                                 ctx.nvars, "empty chain")
        if not ctx.field.is_zero(ctx.eval(ends["start"])):
            raise InvalidInputError("empty chain start is not a point of its form")
        return WitnessChain([], form=ctx, **ends)
    segments = [_segment_from_json(s, context, ctx)
                for s in json_get(data, "segments", list)]
    want = segments[0].kind if segments else "empty"
    if kind != want:
        raise InvalidInputError(f"witness kind {kind!r} should be {want!r}: the kind of "
                                f"its first segment, or 'empty' when it has none")
    return segments[0] if len(segments) == 1 else WitnessChain(segments)
