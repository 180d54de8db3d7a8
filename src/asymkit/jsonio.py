"""JSON interchange for every object the CLI reads or writes.

Complex scalars are [re, im] pairs, matrices row-major nested lists of pairs.
Writers keep full float precision (a round trip is bit-identical); reports
from :func:`canonical_dumps` round to 12 significant digits for byte-identity.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .approx import OverlapReport
from .bochner import BochnerReport, GnsResult
from .channels import QuantumChannel
from .equivalence import EquivalenceVerdict
from .errors import ValidationError
from .groups import GroupTable, group_from_json, group_to_json
from .reps import IrrepDecomposition, UnitaryRep
from .states import CharFunction, IrrepReduction, QuantumState, WeightState


def round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(p) -> complex:
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise ValidationError(f"expected an [re, im] pair, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def vector_to_json(v: np.ndarray) -> list:
    return [complex_to_pair(z) for z in np.asarray(v).ravel()]


def vector_from_json(obj) -> np.ndarray:
    return np.array([pair_to_complex(p) for p in obj], dtype=complex)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m)
    return [[complex_to_pair(z) for z in row] for row in m]


def matrix_from_json(obj) -> np.ndarray:
    return np.array([[pair_to_complex(p) for p in row] for row in obj], dtype=complex)


# -- representations ---------------------------------------------------------


def rep_to_json(r: UnitaryRep, inline_group: bool = True) -> dict:
    out: dict[str, Any] = {
        "dim": r.dim,
        "mats": [matrix_to_json(r.mats[g]) for g in r.group.elements()],
    }
    if inline_group:
        out["group"] = group_to_json(r.group)
    return out


def rep_from_json(obj: dict, group: GroupTable | None = None) -> UnitaryRep:
    if group is None:
        if "group" not in obj:
            raise ValidationError("representation JSON carries no group; pass one explicitly")
        group = group_from_json(obj["group"])
    mats = np.array([matrix_from_json(m) for m in obj["mats"]], dtype=complex)
    rep = UnitaryRep(group, mats)
    if "dim" in obj and int(obj["dim"]) != rep.dim:
        raise ValidationError("representation JSON 'dim' does not match its matrices")
    return rep


# -- states and functions -----------------------------------------------------


def state_to_json(s: QuantumState) -> dict:
    if s.is_pure:
        return {"kind": "pure", "data": vector_to_json(s.vec)}
    return {"kind": "mixed", "data": matrix_to_json(s.rho)}


def state_from_json(obj: dict) -> QuantumState:
    kind = obj.get("kind")
    if kind == "pure":
        return QuantumState.pure(vector_from_json(obj["data"]))
    if kind == "mixed":
        return QuantumState.mixed(matrix_from_json(obj["data"]))
    raise ValidationError(f"state JSON kind must be 'pure' or 'mixed', got {kind!r}")


def weight_state_from_json(obj: dict) -> WeightState:
    if "weights" not in obj:
        raise ValidationError("weight-state JSON must contain a 'weights' map")
    weights = {int(k): float(v) for k, v in obj["weights"].items()}
    amps = obj.get("amplitudes")
    if amps is not None:
        amps = {int(k): pair_to_complex(v) for k, v in amps.items()}
    return WeightState(weights, amps)


def weight_state_to_json(w: WeightState) -> dict:
    out: dict[str, Any] = {"weights": {str(n): float(p) for n, p in w.weights.items()}}
    if w.amplitudes is not None:
        out["amplitudes"] = {str(n): complex_to_pair(a) for n, a in w.amplitudes.items()}
    return out


def func_to_json(f: CharFunction) -> dict:
    return {"values": vector_to_json(f.values), "labels": list(f.group.labels)}


def func_from_json(obj, group: GroupTable) -> CharFunction:
    values = obj["values"] if isinstance(obj, dict) else obj
    return CharFunction(group, vector_from_json(values))


# -- channels -----------------------------------------------------------------


def channel_to_json(c: QuantumChannel) -> dict:
    return {
        "d_in": c.d_in,
        "d_out": c.d_out,
        "kraus": [matrix_to_json(k) for k in c.kraus],
    }


def channel_from_json(obj: dict) -> QuantumChannel:
    kraus = np.array([matrix_from_json(k) for k in obj["kraus"]], dtype=complex)
    c = QuantumChannel(kraus)
    if "d_in" in obj and int(obj["d_in"]) != c.d_in:
        raise ValidationError("channel JSON 'd_in' does not match its Kraus operators")
    if "d_out" in obj and int(obj["d_out"]) != c.d_out:
        raise ValidationError("channel JSON 'd_out' does not match its Kraus operators")
    return c


# -- composite reports --------------------------------------------------------


def decomposition_to_json(dec: IrrepDecomposition) -> dict:
    return {
        "basis": matrix_to_json(dec.basis),
        "offsets": list(dec.offsets),
        "blocks": [
            {
                "label": blk.label,
                "dim": blk.dim,
                "mult": blk.mult,
                "character": vector_to_json(blk.character),
                "mats": [matrix_to_json(m) for m in blk.mats],
            }
            for blk in dec.blocks
        ],
    }


def reduction_to_json(red: IrrepReduction) -> dict:
    return {
        "labels": list(red.labels),
        "blocks": [matrix_to_json(b) for b in red.blocks],
        "traces": [float(t) for t in red.traces()],
    }


def verdict_to_json(v: EquivalenceVerdict) -> dict:
    return {
        "status": v.status.value,
        "witness": None if v.witness is None else matrix_to_json(v.witness),
        "one_dim_rep": None if v.one_dim_rep is None else vector_to_json(v.one_dim_rep),
        "certificate": v.certificate,
    }


def overlap_report_to_json(rep: OverlapReport) -> dict:
    return {
        "optimal": float(rep.optimal),
        "per_mu_fidelity": {str(k): float(v) for k, v in rep.per_mu_fidelity.items()},
        "witness": matrix_to_json(rep.witness),
        "bound_trace": float(rep.bound_trace),
        "bound_charfunc_global": float(rep.bound_charfunc_global),
        "bound_charfunc_per_mu": float(rep.bound_charfunc_per_mu),
    }


def bochner_report_to_json(rep: BochnerReport) -> dict:
    return {
        "positive_definite": rep.positive_definite,
        "normalized": rep.normalized,
        "min_eigenvalue": float(rep.min_eigenvalue),
        "worst_block": rep.worst_block,
        "block_min_eigenvalues": {
            str(k): float(v) for k, v in rep.block_min_eigenvalues.items()
        },
        "hermiticity_residual": float(rep.hermiticity_residual),
    }


def gns_result_to_json(res: GnsResult) -> dict:
    return {
        "dim": res.dim,
        "state": state_to_json(res.state),
        "rep": rep_to_json(res.rep, inline_group=False),
    }


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, rounded floats, stable separators."""
    return json.dumps(_round_floats(obj), sort_keys=True, separators=(",", ": "), indent=1)


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, (np.floating,)):
        return round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj
