"""Checks shared by several test modules."""

from __future__ import annotations

import numpy as np

import asymkit as ak
from asymkit.linalg import assert_psd, scaled_tol, trace_norm


def trace_distance_fidelity_check(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ||A - B||_1 >= tr A + tr B - 2 Fid(A, B) holds (it always does).

    The characteristic-function and trace-distance bounds on the optimal
    overlap lean on this inequality.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    tol = scaled_tol(a, b, base=1e-8)
    assert_psd(a, tol, what="inequality argument")
    assert_psd(b, tol, what="inequality argument")
    lhs = trace_norm(a - b)
    rhs = float(np.trace(a).real + np.trace(b).real) - 2.0 * ak.fidelity(a, b, tol)
    return lhs >= rhs - 10 * tol
