"""Minimal SVG emission for trace plots: no plotting dependency.

Two stacked panels (roll angle vs time, motor angle vs time) drawn as
polyline paths into a fixed 800x600 viewBox.  Each polyline keeps, per
pixel column, only its lowest and highest point, in time order, so its
size is bounded by the plot width, not by the trace length.  Output is
deterministic for identical inputs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 45
N_TICKS = 5


def _nice_limits(values: np.ndarray) -> Tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    if math.isclose(lo, hi, abs_tol=1e-12):
        pad = max(abs(lo) * 0.1, 1.0)
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _column_extrema(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Indices of the lowest and highest point of each pixel column.

    Columns are ``floor(px)``.  Ties keep the first point as the lowest
    and the last as the highest; the indices come back in input order.
    A mask, not ``np.union1d``, merges the two ends of each column: numpy
    2's ``np.unique`` imports ``numpy.ma``, about 5 ms on a 2-vCPU host.
    """
    import numpy as np
    column = np.floor(px)
    order = np.lexsort((py, column))
    edges = column[order][1:] != column[order][:-1]
    keep = np.zeros(len(px), dtype=bool)
    keep[order[np.r_[True, edges] | np.r_[edges, True]]] = True
    return np.flatnonzero(keep)


def _panel(x: np.ndarray, y: np.ndarray, top: float, height: float,
           title: str, x_label: str, y_label: str) -> List[str]:
    x0, x1 = _nice_limits(x)
    y0, y1 = _nice_limits(y)
    left = MARGIN_LEFT
    right = WIDTH - MARGIN_RIGHT
    bottom = top + height

    def sx(value: float) -> float:
        return left + (value - x0) / (x1 - x0) * (right - left)

    def sy(value: float) -> float:
        return bottom - (value - y0) / (y1 - y0) * height

    parts = [
        f'<rect x="{left}" y="{top:.1f}" width="{right - left}" '
        f'height="{height:.1f}" fill="none" stroke="#888" stroke-width="1"/>',
        f'<text x="{(left + right) / 2:.1f}" y="{top - 8:.1f}" '
        f'text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{(left + right) / 2:.1f}" y="{bottom + 34:.1f}" '
        f'text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="{left - 52:.1f}" y="{top + height / 2:.1f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 {left - 52:.1f} '
        f'{top + height / 2:.1f})">{y_label}</text>',
    ]
    for k in range(N_TICKS):
        frac = k / (N_TICKS - 1)
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        xs, ys = sx(xv), sy(yv)
        parts.append(f'<line x1="{xs:.1f}" y1="{bottom:.1f}" x2="{xs:.1f}" '
                     f'y2="{bottom + 5:.1f}" stroke="#888"/>')
        parts.append(f'<text x="{xs:.1f}" y="{bottom + 18:.1f}" '
                     f'text-anchor="middle" font-size="11">{xv:.2f}</text>')
        parts.append(f'<line x1="{left - 5}" y1="{ys:.1f}" x2="{left}" '
                     f'y2="{ys:.1f}" stroke="#888"/>')
        parts.append(f'<text x="{left - 8}" y="{ys + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{yv:.2f}</text>')
    px, py = sx(x), sy(y)
    keep = _column_extrema(px, py)
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in
                      zip(px[keep].tolist(), py[keep].tolist()))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb4" '
                 f'stroke-width="1.5"/>')
    return parts


def trace_svg(times: Sequence[float], roll_deg: Sequence[float],
              motor_rad: Sequence[float], title: str = "") -> str:
    """Two-panel SVG of roll angle (deg) and motor angle (rad) over time."""
    import numpy as np
    times, roll_deg, motor_rad = (np.asarray(v, dtype=float)
                                  for v in (times, roll_deg, motor_rad))
    if not len(times) or len(times) != len(roll_deg) \
            or len(times) != len(motor_rad):
        raise ValueError("times, roll_deg, and motor_rad must be equal-length "
                         "non-empty sequences")
    panel_height = (HEIGHT - MARGIN_TOP - 2 * MARGIN_BOTTOM - 40) / 2
    body: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="monospace">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        body.append(f'<text x="{WIDTH / 2}" y="18" text-anchor="middle" '
                    f'font-size="15">{title}</text>')
    body.extend(_panel(times, roll_deg, MARGIN_TOP, panel_height,
                       "roll angle", "time [s]", "phi [deg]"))
    body.extend(_panel(times, motor_rad,
                       MARGIN_TOP + panel_height + MARGIN_BOTTOM + 20,
                       panel_height, "motor angle", "time [s]",
                       "theta_m [rad]"))
    body.append("</svg>")
    return "\n".join(body) + "\n"
