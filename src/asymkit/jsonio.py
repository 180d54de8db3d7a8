"""JSON interchange for every object the CLI reads or writes.

Complex scalars are [re, im] pairs, matrices row-major nested lists of pairs,
converted a whole array at a time.  Integer fields must hold whole numbers (2.0
reads as 2, 2.5 raises).  A representation is written in the first of three forms
that fits what :class:`UnitaryRep` holds, each marked by its key:

* monomial, ``src`` and ``phase`` of shape (|G|, dim): mats[g, i, src[g, i]] = phase[g, i];
* diagonal blocks, unless there is just one: ``blocks``, a list of ``{"start", "mats"}``;
* dense: ``mats``, every (dim, dim) matrix in full.

The reader takes all three, dense files of monomial reps included, with the full
validation of :class:`UnitaryRep`.  A monomial file is checked and built on its
(src, phase) form and a ``blocks`` file on its blocks, neither stacked densely; a ``mats``
file is read into the dense stack.  Writers keep full float precision (a round trip is
bit-identical).  The CLI lays out each report once by one rule, :func:`report_to_json` (a
dataclass by its fields, an Enum by its value, a group, state, rep, channel or function as its
file lays it out, an array as the array it is); the file writers list the same layout.
:func:`canonical_dumps` writes a report with floats rounded to 12 significant digits, each
array by one ``format`` call on its flat list of numbers (a complex one as [re, im] pairs), in
text byte for byte what ``json.dumps`` of the rounded, listed payload gives.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import re
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .channels import QuantumChannel
from .errors import SizeLimitError, ValidationError
from .groups import GroupTable, _whole, _whole_number
from .reps import IrrepDecomposition, UnitaryRep, _block_rep
from .states import CharFunction, IrrepReduction, QuantumState, WeightState


def matrix_from_json(obj, ndim: int = 2) -> np.ndarray:
    """The complex array with ``ndim`` axes held in nested [re, im] pairs.

    Leaves are read as ``float()`` reads them.  A ragged nesting, a pair of the
    wrong length, the wrong depth or a null leaf raises ValidationError.
    """
    try:
        a = np.array(obj, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"expected nested [re, im] pairs: {exc}") from None
    # numpy reads a null as NaN, so only a NaN leaf can hide one
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or np.isnan(a).any() and _has_null(obj):
        raise ValidationError(f"expected [re, im] pairs nested {ndim} deep and no null")
    return a.view(complex)[..., 0]


def _has_null(obj) -> bool:
    return obj is None or isinstance(obj, (list, tuple)) and any(map(_has_null, obj))


def matrix_to_json(m: np.ndarray) -> list:
    """Nested [re, im] lists of a complex array of any shape, in one ``tolist`` call."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


# -- groups -------------------------------------------------------------------


def group_to_json(g: GroupTable) -> dict:
    """JSON form: order, full table, labels.  Inverses are never serialized."""
    return listed(report_to_json(g))


def group_from_json(obj: dict) -> GroupTable:
    """Rebuild and fully re-validate a group from its JSON form."""
    if "mul" not in obj:
        raise ValidationError("group JSON must contain a 'mul' table")
    table = GroupTable(obj["mul"], labels=obj.get("labels"))
    if "order" in obj and _whole_number(obj["order"], "group JSON 'order'") != table.order:
        raise ValidationError("group JSON 'order' does not match table size")
    return table


# -- representations ---------------------------------------------------------

_REP_BYTES = 1 << 28  # largest form a rep file may claim, in the bytes it is held in


def rep_to_json(r: UnitaryRep) -> dict:
    """The rep in the first form that fits it (:func:`report_to_json`), listed, with its group."""
    return {**listed(report_to_json(r)), "group": group_to_json(r.group)}


def _rep_form(r: UnitaryRep) -> dict:
    """The rep in the first form that fits it: monomial, diagonal blocks unless there is
    just one (a 0-dim rep has none), or dense; ``src`` an integer array, the rest complex."""
    out: dict[str, Any] = {"dim": r.dim}
    if r._monomial is not None:
        out["src"], out["phase"] = r._monomial
    else:  # each diagonal block of the rep's stacks, in start order; one block is `mats`
        starts = sorted((int(c[0]), m) for cs, ms in r._stacks for c, m in zip(cs, ms))
        blocks = [{"start": a, "mats": m} for a, m in starts]
        out.update({"blocks": blocks} if len(blocks) != 1 else {"mats": blocks[0]["mats"]})
    return out


def rep_from_json(obj: dict, group: GroupTable | None = None) -> UnitaryRep:
    """Read a rep in any of the three forms and validate it in full on the form it is held in:
    a monomial one on (src, phase), a ``blocks`` one on its blocks and a ``mats`` one on its
    dense stack, both cut to the diagonal blocks of their exact-zero pattern first.

    A compact form must state ``dim``.  A form that holds over 256 MiB (|G| dim 24 bytes as
    (src, phase), |G| sum s^2 16 as blocks of s rows read off the lists, |G| dim^2 16 as ``mats``
    of a stated ``dim``) raises SizeLimitError before any array is read.  Malformed indices or
    blocks raise ValidationError; phases and block entries are left to UnitaryRep.
    """
    if group is None:
        if "group" not in obj:
            raise ValidationError("representation JSON carries no group; pass one explicitly")
        group = group_from_json(obj["group"])
    form = [key for key in ("mats", "blocks", "src", "phase") if key in obj]
    if form not in (["mats"], ["blocks"], ["src", "phase"]):
        raise ValidationError(
            f"representation JSON needs 'mats', 'blocks' or 'src' with 'phase', got {form}"
        )
    n, dim = group.order, obj.get("dim")
    if dim is None and form != ["mats"]:
        raise ValidationError("a compact representation JSON must state its 'dim'")
    if dim is not None:
        dim = _whole_number(dim, "representation JSON 'dim'")
        if dim < 0:
            raise ValidationError(f"representation JSON 'dim' must be nonnegative, got {dim}")
    if form == ["blocks"]:
        held = n * 16 * sum(s * s for s in _rows(obj["blocks"]))
    else:
        held = n * (24 * dim if form == ["src", "phase"] else 16 * (dim or 0) ** 2)
    if held > _REP_BYTES:
        raise SizeLimitError(
            f"a {dim}-dim rep of a group of order {n} takes {held} bytes in its {form[0]!r}"
            f" form, over the cap {_REP_BYTES}"
        )
    if form == ["src", "phase"]:
        src, phase = _whole(obj["src"], "'src'"), matrix_from_json(obj["phase"], 2)
        if src.shape != (n, dim) or phase.shape != (n, dim):
            raise ValidationError(
                f"'src' {src.shape} and 'phase' {phase.shape} must both have shape {(n, dim)}"
            )
        if not (np.sort(src, axis=1) == np.arange(dim)).all():
            raise ValidationError(f"each row of 'src' must hold every index 0..{dim - 1} once")
        return _block_rep(group, (src, phase))
    if form == ["blocks"]:
        return _block_rep(group, _block_mats(obj["blocks"], n, dim))
    rep = UnitaryRep(group, matrix_from_json(obj["mats"], 3))
    if dim is not None and dim != rep.dim:
        raise ValidationError("representation JSON 'dim' does not match its matrices")
    return rep


def _rows(blocks) -> list[int]:
    """The rows of each block's first matrix, read off its nested lists (0 where malformed, which
    :func:`_block_mats` rejects); ValidationError unless each block is a {start, mats} dict."""
    if not isinstance(blocks, list) or not all(
        isinstance(blk, dict) and "start" in blk and "mats" in blk for blk in blocks
    ):
        raise ValidationError("representation JSON 'blocks' must be a list of {start, mats}")
    mats = [blk["mats"] for blk in blocks]
    return [len(m[0]) if isinstance(m, list) and m and isinstance(m[0], list) else 0 for m in mats]


def _block_mats(blocks: list, n: int, dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each block's (cols, sub) stack of one: its indices start..start+s and (n, s, s)
    matrices; the blocks must follow each other from 0 to dim, with no gap and no overlap."""
    stacks, at = [], 0
    for blk in blocks:
        start, m = _whole_number(blk["start"], "block 'start'"), matrix_from_json(blk["mats"], 3)
        if start != at or m.shape[0] != n or m.shape[1] != m.shape[2] or at + m.shape[1] > dim:
            raise ValidationError(
                f"block at {start} of shape {m.shape} does not tile (|G|, {dim}, {dim})"
                f" after index {at}: the blocks must be square and follow each other"
            )
        at += m.shape[1]
        stacks.append((np.arange(start, at)[None], m[None]))
    if at != dim:
        raise ValidationError(f"the blocks cover {at} of 'dim' {dim} indices")
    return stacks


# -- states and functions -----------------------------------------------------


def state_to_json(s: QuantumState) -> dict:
    return listed(report_to_json(s))


def state_from_json(obj: dict) -> QuantumState:
    kind = obj.get("kind")
    if kind == "pure":
        return QuantumState.pure(matrix_from_json(obj["data"], 1))
    if kind == "mixed":
        return QuantumState.mixed(matrix_from_json(obj["data"], 2))
    raise ValidationError(f"state JSON kind must be 'pure' or 'mixed', got {kind!r}")


def weight_state_from_json(obj: dict) -> WeightState:
    if "weights" not in obj:
        raise ValidationError("weight-state JSON must contain a 'weights' map")
    amps = obj.get("amplitudes")  # WeightState reads the keys as whole numbers
    if amps is not None:
        amps = {k: complex(matrix_from_json(v, 0)) for k, v in amps.items()}
    return WeightState(obj["weights"], amps)


def weight_state_to_json(w: WeightState) -> dict:
    return listed(report_to_json(w))


def func_to_json(f: CharFunction) -> dict:
    return listed(report_to_json(f))


def func_from_json(obj, group: GroupTable) -> CharFunction:
    values = obj["values"] if isinstance(obj, dict) else obj
    return CharFunction(group, matrix_from_json(values, 1))


# -- channels -----------------------------------------------------------------


def channel_to_json(c: QuantumChannel) -> dict:
    return listed(report_to_json(c))


def channel_from_json(obj: dict) -> QuantumChannel:
    c = QuantumChannel(matrix_from_json(obj["kraus"], 3))
    if "d_in" in obj and _whole_number(obj["d_in"], "channel JSON 'd_in'") != c.d_in:
        raise ValidationError("channel JSON 'd_in' does not match its Kraus operators")
    if "d_out" in obj and _whole_number(obj["d_out"], "channel JSON 'd_out'") != c.d_out:
        raise ValidationError("channel JSON 'd_out' does not match its Kraus operators")
    return c


# -- reports ----------------------------------------------------------------


def report_to_json(obj: Any) -> Any:
    """The JSON of a report, by one rule applied all the way down, its arrays kept as arrays.

    A dataclass becomes a dict of its fields by name, an array stays the array it is (a complex
    one written as nested [re, im] pairs), an Enum its value and a dict the same dict with
    ``str`` keys.  A group, state, weight state, rep (without its group), channel or
    characteristic function is laid out as its file is: :func:`group_to_json` and the other
    file writers list this layout.  A decomposition is its ``basis``, ``offsets`` and
    ``blocks``, a reduction its ``labels``, ``blocks`` and ``traces``.  Anything else (None,
    bool, int, float, and a list, which is not entered) is kept as it is.
    """
    if isinstance(obj, np.ndarray):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): report_to_json(v) for k, v in obj.items()}
    if isinstance(obj, QuantumState):
        if obj.is_pure:
            return {"kind": "pure", "data": obj.vec}
        return {"kind": "mixed", "data": obj.rho}
    if isinstance(obj, UnitaryRep):
        return _rep_form(obj)
    if isinstance(obj, QuantumChannel):
        return {"d_in": obj.d_in, "d_out": obj.d_out, "kraus": obj.kraus}
    if isinstance(obj, WeightState):  # each amplitude a 0-dim complex array; None, no key
        out = {"weights": {str(n): float(p) for n, p in obj.weights.items()}}
        amps = {str(n): np.array(a, complex) for n, a in (obj.amplitudes or {}).items()}
        return out if obj.amplitudes is None else {**out, "amplitudes": amps}
    if isinstance(obj, CharFunction):
        return {"values": obj.values, "labels": list(obj.group.labels)}
    if isinstance(obj, GroupTable):
        return {"order": obj.order, "mul": obj.mul, "labels": list(obj.labels)}
    if isinstance(obj, IrrepDecomposition):
        blocks = [report_to_json(blk) for blk in obj.blocks]
        return {"basis": obj.basis, "offsets": np.array(obj.offsets, int), "blocks": blocks}
    if isinstance(obj, IrrepReduction):
        labels = np.array(obj.labels, int)
        return {"labels": labels, "blocks": list(obj.blocks), "traces": obj.traces()}
    if dataclasses.is_dataclass(obj):
        return {f.name: report_to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def listed(obj: Any) -> Any:
    """obj with each array leaf in dicts and lists as the nested lists JSON holds: a complex
    array as :func:`matrix_to_json` writes it, any other by ``tolist``."""
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj) if obj.dtype.kind == "c" else obj.tolist()
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [listed(v) for v in obj]
    return obj


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, floats rounded to 12 significant digits.

    The text of ``json.dumps(..., sort_keys=True, separators=(",", ": "), indent=1)`` of obj
    with its arrays listed (:func:`listed`), each array of numbers printed by one ``format``
    call and every other leaf by ``json.dumps``.
    """
    out: list[str] = []
    _write(obj, 0, out)
    return "".join(out)


def _write(obj: Any, level: int, out: list[str]) -> None:
    pad = "\n" + " " * (level + 1)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c":  # each complex128 as its (re, im) pair of float64
            obj = np.ascontiguousarray(obj, complex).view(float).reshape(obj.shape + (2,))
        if obj.size and obj.dtype.kind in "iuf":
            out.append(_format(obj.shape, obj.ravel().tolist(), obj.dtype.kind in "iu", level))
        else:  # no number leaf to format: json's own layout of the listed array
            _write(obj.tolist(), level, out)
    elif isinstance(obj, dict) and obj:
        sep = "{"
        for k, v in sorted(obj.items()):
            # json.dumps of a one-key dict converts a key that is no str as json does
            key = encode_basestring_ascii(k) if type(k) is str else json.dumps({k: 0})[1:-4]
            out.append(sep + pad + key + ": ")
            _write(v, level + 1, out)
            sep = ","
        out.append(pad[:-1] + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "["
        for v in obj:
            out.append(sep + pad)
            _write(v, level + 1, out)
            sep = ","
        out.append(pad[:-1] + "]")
    elif type(obj) is int:
        out.append(str(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(json.dumps(float(f"{float(obj):.12g}")))
    else:
        out.append(json.dumps(int(obj) if isinstance(obj, np.integer) else obj))


def _format(shape, flat: list, ints: bool, level: int) -> str:
    """The leaves flat, of the given shape, in json's indent=1 layout by one ``format`` call.

    ``{:.12}`` prints a double as ``repr`` prints it rounded to 12 digits, except for
    exponents 11 to 15 and subnormals; those arrays are rounded and ``repr``-printed.
    """
    template = "{}" if ints else "{:.12}"  # one per leaf
    for depth in reversed(range(len(shape))):
        pad = "\n" + " " * (level + depth + 1)
        template = "[" + pad + ("," + pad).join([template] * shape[depth]) + pad[:-1] + "]"
    text = template.format(*flat)
    if re.search(r"e\+1[1-5]\b|e-30[89]|e-3[12]\d", text):
        text = template.replace("{:.12}", "{!r}").format(*[float(f"{x:.12g}") for x in flat])
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text
