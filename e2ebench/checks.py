"""Correctness gate for the benchmark: CSV digests and closed-form spot checks.

Every CSV a workload produces must hash to the sha256 recorded in
``digests.json``; the preset contract says their bytes never change. On top
of that, rows drawn with the run's seed are recomputed here from closed forms
written independently of ``src/gadengine``:

- cyclic qubit work ``[(1-f)*gamma*pg - f*gamma*pe] * (dh - dc)`` and
  ``efficiency = 1 - dc/dh`` whenever heat is absorbed;
- the non-cyclic qubit and the qutrit cycles from the GAD population maps;
- qubit and qutrit ergotropy of the fig7 landscapes from the same maps.

A failing check gives a message, a passing one None.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text(encoding="utf-8"))

# Heat below this is rounding noise to the program, so efficiency is nan there.
_HEAT_FLOOR = 1e-12
_TOL = 1e-9
SAMPLED_ROWS = 64


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= _TOL * max(1.0, abs(want))


def _efficiency_ok(got: float, work: float, q_hot: float) -> bool:
    if abs(q_hot - _HEAT_FLOOR) < _TOL:
        return True  # too close to the program's cut-off to decide either way
    return _close(got, work / q_hot if q_hot > _HEAT_FLOOR else math.nan)


def _qubit_transfer(pg: float, pe: float, f: float, gamma: float) -> float:
    """Population moved ground -> excited by gad_qubit(f, gamma)."""
    return (1.0 - f) * gamma * pg - f * gamma * pe


def _qutrit_hot(p, f: float, lam1: float, lam2: float):
    p0, p1, p2 = p
    q1 = p1 + (1.0 - f) * lam1 * p0 - f * lam1 * p1
    q2 = p2 + (1.0 - f) * lam2 * p0 - f * lam2 * p2
    return 1.0 - q1 - q2, q1, q2


def _expected_qubit(r: dict) -> dict:
    pg, pe, f, gamma, k, dh, dc = (r[c] for c in ("pg", "pe", "f", "gamma", "k", "dh", "dc"))
    x = _qubit_transfer(pg, pe, f, gamma)
    q_hot = x * dh
    if r["cyclic"]:
        want = {"pe": 1.0 - pg, "q_hot": q_hot, "q_cold": -x * dc,
                "work": x * (dh - dc), "deviation": 0.0, "delta_w": 0.0}
        if abs(q_hot - _HEAT_FLOOR) >= _TOL:
            want["efficiency"] = 1.0 - dc / dh if q_hot > _HEAT_FLOOR else math.nan
        return want
    pe_end = (1.0 - k) * (pe + x)  # amplitude damping ad_qubit(k) after the hot stroke
    delta_w = (pe - pe_end) * dh
    work = q_hot - x * dc - delta_w
    return {"pe": 1.0 - pg, "q_hot": q_hot, "work": work, "delta_w": delta_w,
            "deviation": math.sqrt(2.0) * abs(pe_end - pe)}


def _expected_qutrit(r: dict, f: float) -> dict:
    p = (r["p0"], r["p1"], r["p2"])
    q = _qutrit_hot(p, f, r["lam1"], r["lam2"])
    end = _qutrit_hot(q, 1.0, r["k1"], r["k2"])  # cold stroke: pure decay
    hot = (0.0, r["dh10"], r["dh20"])
    cold = (0.0, r["dc10"], r["dc20"])
    q_hot = sum((b - a) * e for a, b, e in zip(p, q, hot))
    q_cold = sum((b - a) * e for a, b, e in zip(q, end, cold))
    return {"q_hot": q_hot, "q_cold": q_cold, "work": q_hot + q_cold,
            "delta_w": sum((a - b) * e for a, b, e in zip(p, end, hot)),
            "deviation": math.sqrt(sum((a - b) ** 2 for a, b in zip(p, end)))}


# fig7 constants, which `ergomap` and the fig7 preset share: both media start
# in the ground level; qubit gap 1 at rate 1, qutrit levels (0, 1, 2) at
# rates (1, 0.25).
def _qubit_ergotropy(f: float, t: float) -> float:
    lam = -math.expm1(-t)
    x = _qubit_transfer(1.0, 0.0, f, lam)
    inversion = (0.0 + x) - (1.0 - x)
    return inversion if inversion > 0.0 else 0.0


def _qutrit_ergotropy(f: float, t: float) -> float:
    q = _qutrit_hot((1.0, 0.0, 0.0), f, -math.expm1(-t), -math.expm1(-0.25 * t))
    levels = (0.0, 1.0, 2.0)
    active = sum(a * e for a, e in zip(q, levels))
    passive = sum(a * e for a, e in zip(sorted(q, reverse=True), levels))
    return active - passive


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text  # the mixed schema's system column


def check_row(columns: tuple, cells: list) -> str | None:
    """Compare one CSV row with the closed forms for its schema."""
    r = dict(zip(columns, (_parse_cell(c) for c in cells)))
    if "w_qubit" in r:
        want = {"w_qubit": _qubit_ergotropy(r["f"], r["t"]),
                "w_qutrit": _qutrit_ergotropy(r["f"], r["t"]),
                "dw": r["w_qutrit"] - r["w_qubit"]}
    elif r.get("system") == "qutrit":
        want = _expected_qutrit(r, r["f"])
    else:
        want = _expected_qubit(r)
    bad = [name for name, value in want.items() if not _close(r[name], value)]
    if "efficiency" in r and "efficiency" not in want and not _efficiency_ok(
            r["efficiency"], r["work"], r["q_hot"]):
        bad.append("efficiency")
    if bad:
        return f"closed form disagrees on {', '.join(bad)} in row {','.join(cells)}"
    return None


def check_csv(command: str, data: bytes, rng) -> tuple[str | None, int]:
    """Digest plus seeded spot checks of one CSV output; also its data-row count."""
    body = [line for line in data.split(b"\n") if line and not line.startswith(b"#")]
    rows = body[1:]
    digest = hashlib.sha256(data).hexdigest()
    if DIGESTS.get(command) != digest:
        return f"sha256 {digest} differs from the recorded digest", len(rows)
    try:
        columns = tuple(body[0].decode("utf-8").split(","))
        picks = {0, len(rows) - 1} | set(rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows))))
        for i in sorted(picks):
            problem = check_row(columns, rows[i].decode("utf-8").split(","))
            if problem:
                return problem, len(rows)
    except (UnicodeDecodeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable CSV: {exc!r}", len(rows)
    return None, len(rows)


def check_validate(stdout: bytes) -> str | None:
    if not any(line.startswith(b"OK: 13/13 ") for line in stdout.splitlines()):
        return "validate did not print OK: 13/13"
    return None
