"""Independent references the benchmark checks marginlab's outputs against.

None of these call into marginlab: the logits container and the audit
JSONL are parsed here from their documented formats, bf16 rounding and
top-2 selection are recomputed with plain numpy, and churn is recounted
from the parsed columns.
"""

from __future__ import annotations

import json

import numpy as np

_ROWS_PER_CHUNK = 10_000


def read_container(path: str) -> np.ndarray:
    """Float32 matrix of an ``f32`` logits container (header line + raw
    little-endian payload)."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        payload = np.fromfile(f, dtype="<f4")
    if header["dtype"] != "f32" or payload.size != header["rows"] * header["cols"]:
        raise ValueError(f"{path}: not an f32 container of the stated shape")
    return payload.reshape(header["rows"], header["cols"])


def round_bf16(x: np.ndarray) -> np.ndarray:
    """Round float32 to the nearest bfloat16 value, ties to even (finite
    inputs), computed in 64-bit integer arithmetic."""
    bits = x.astype(np.float32).view(np.uint32).astype(np.uint64)
    keep = bits >> np.uint64(16)
    rest = bits & np.uint64(0xFFFF)
    up = (rest > 0x8000) | ((rest == 0x8000) & (keep & np.uint64(1) == 1))
    return ((keep + up) << np.uint64(16)).astype(np.uint32).view(np.float32)


def stable_top2(matrix: np.ndarray, bf16: bool):
    """(top1, top2, margin, tied) per row by a stable descending sort, so the
    lower id wins ties.  ``tied`` marks rows whose two best logits are equal."""
    n = matrix.shape[0]
    top1 = np.empty(n, dtype=np.int64)
    top2 = np.empty(n, dtype=np.int64)
    margin = np.empty(n, dtype=np.float64)
    tied = np.empty(n, dtype=bool)
    for lo in range(0, n, _ROWS_PER_CHUNK):
        block = matrix[lo : lo + _ROWS_PER_CHUNK]
        if bf16:
            block = round_bf16(block)
        order = np.argsort(-block, axis=1, kind="stable")
        rows = np.arange(block.shape[0])
        v1 = block[rows, order[:, 0]]
        v2 = block[rows, order[:, 1]]
        top1[lo : lo + block.shape[0]] = order[:, 0]
        top2[lo : lo + block.shape[0]] = order[:, 1]
        margin[lo : lo + block.shape[0]] = v1 - v2
        tied[lo : lo + block.shape[0]] = v1 == v2
    return top1, top2, margin, tied


def read_audit_columns(path: str) -> dict[str, np.ndarray]:
    """Columns of an audit JSONL file, header line skipped."""
    with open(path, "r", encoding="utf-8") as f:
        header = json.loads(f.readline())
        records = [json.loads(line) for line in f if line.strip()]
    if header["count"] != len(records):
        raise ValueError(f"{path}: header count {header['count']} != {len(records)} records")
    columns = {
        key: np.array([r[key] for r in records])
        for key in ("position_index", "target_id", "top1_id", "top2_id", "margin", "correct")
    }
    columns["margin"] = columns["margin"].astype(np.float64)
    return columns


def invariant_violations(cols: dict[str, np.ndarray]) -> int:
    """Records breaking MarginRecord's invariants: margin >= 0,
    top1 != top2, correct == (top1 == target), positions 0..n-1."""
    bad = (
        ~(cols["margin"] >= 0)
        | (cols["top1_id"] == cols["top2_id"])
        | (cols["correct"].astype(bool) != (cols["top1_id"] == cols["target_id"]))
        | (cols["position_index"] != np.arange(cols["position_index"].size))
    )
    return int(np.count_nonzero(bad))


def reference_mismatches(cols: dict[str, np.ndarray], targets: np.ndarray, ref) -> int:
    """Records whose target, ids or margin differ from the reference."""
    top1, top2, margin, _ = ref
    bad = (
        (cols["target_id"] != targets)
        | (cols["top1_id"] != top1)
        | (cols["top2_id"] != top2)
        | (cols["margin"] != margin)
    )
    return int(np.count_nonzero(bad))


def churn_recount(base: dict[str, np.ndarray], pol: dict[str, np.ndarray]) -> dict[str, int]:
    changed = base["top1_id"] != pol["top1_id"]
    b_ok = base["correct"].astype(bool)
    p_ok = pol["correct"].astype(bool)
    return {
        "churned": int(np.count_nonzero(changed)),
        "w2r": int(np.count_nonzero(changed & ~b_ok & p_ok)),
        "r2w": int(np.count_nonzero(changed & b_ok & ~p_ok)),
    }
