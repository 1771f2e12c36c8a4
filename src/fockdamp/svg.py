"""Minimal built-in SVG rendering: two line panels plus a bar inset.

Deliberately small: polylines, rectangles and text, no external plotting
dependency. Output is a static result display, not an interactive figure.
"""

from __future__ import annotations

import numpy as np

_W, _H = 780, 560
_MARGIN = 55


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(v) for v in raw]


def _fmt(v: float) -> str:
    return f"{v:.3g}"


class _Panel:
    def __init__(self, x, y, w, h, xlim, ylim):
        self.x, self.y, self.w, self.h = x, y, w, h
        self.xlim, self.ylim = xlim, ylim

    def px(self, vx):
        x0, x1 = self.xlim
        return self.x + (vx - x0) / (x1 - x0) * self.w

    def py(self, vy):
        y0, y1 = self.ylim
        return self.y + self.h - (vy - y0) / (y1 - y0) * self.h

    def frame(self, out, xlabel, ylabel):
        out.append(
            f'<rect x="{self.x}" y="{self.y}" width="{self.w}" height="{self.h}" '
            'fill="none" stroke="#333" stroke-width="1"/>'
        )
        for tx in _ticks(*self.xlim):
            px = self.px(tx)
            out.append(f'<line x1="{px:.1f}" y1="{self.y + self.h}" x2="{px:.1f}" '
                       f'y2="{self.y + self.h + 4}" stroke="#333"/>')
            out.append(f'<text x="{px:.1f}" y="{self.y + self.h + 16}" font-size="10" '
                       f'text-anchor="middle">{_fmt(tx)}</text>')
        for ty in _ticks(*self.ylim):
            py = self.py(ty)
            out.append(f'<line x1="{self.x - 4}" y1="{py:.1f}" x2="{self.x}" '
                       f'y2="{py:.1f}" stroke="#333"/>')
            out.append(f'<text x="{self.x - 7}" y="{py + 3:.1f}" font-size="10" '
                       f'text-anchor="end">{_fmt(ty)}</text>')
        out.append(f'<text x="{self.x + self.w / 2:.1f}" y="{self.y + self.h + 32}" '
                   f'font-size="11" text-anchor="middle">{xlabel}</text>')
        out.append(f'<text x="{self.x - 42}" y="{self.y + self.h / 2:.1f}" font-size="11" '
                   f'text-anchor="middle" transform="rotate(-90 {self.x - 42} '
                   f'{self.y + self.h / 2:.1f})">{ylabel}</text>')

    def line(self, out, xs, ys, color, width=1.6):
        xy = np.column_stack(
            (self.px(np.asarray(xs, dtype=float)), self.py(np.clip(ys, *self.ylim)))
        )
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="{width}"/>')


def render_timeseries(series, title: str, bar_levels: int = 10) -> str:
    """Mean photon number and standard deviation over time, with the final
    level distribution as a bar inset."""
    t = np.asarray(series.t)
    mean = np.asarray(series.mean_n)
    std = np.asarray(series.std_n)
    top = max(1.0, float(mean.max()), float(std.max())) * 1.05
    panel = _Panel(_MARGIN, 40, _W - 2 * _MARGIN, _H - 2 * _MARGIN - 130,
                   (float(t[0]), float(t[-1])), (0.0, top))
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" font-size="14" text-anchor="middle">{title}</text>',
    ]
    panel.frame(out, "time (units of the reference rate)", "photon number")
    panel.line(out, t, mean, "#1f4e9c", 2.2)
    panel.line(out, t, std, "#c03a2b", 1.3)
    lx = panel.x + panel.w - 150
    out.append(f'<line x1="{lx}" y1="52" x2="{lx + 26}" y2="52" stroke="#1f4e9c" stroke-width="2.2"/>')
    out.append(f'<text x="{lx + 32}" y="56" font-size="11">mean n</text>')
    out.append(f'<line x1="{lx}" y1="70" x2="{lx + 26}" y2="70" stroke="#c03a2b" stroke-width="1.3"/>')
    out.append(f'<text x="{lx + 32}" y="74" font-size="11">std n</text>')

    # final-distribution bar inset
    pops = np.asarray(series.populations[-1][:bar_levels])
    by, bh = _H - 150, 110
    bars = _Panel(_MARGIN, by, _W - 2 * _MARGIN, bh, (-0.5, bar_levels - 0.5),
                  (0.0, max(1e-12, float(pops.max())) * 1.1))
    bars.frame(out, "level n (final sample)", "p_n")
    bw = bars.w / bar_levels * 0.7
    for n, p in enumerate(pops):
        px = bars.px(n) - bw / 2
        py = bars.py(p)
        out.append(f'<rect x="{px:.1f}" y="{py:.1f}" width="{bw:.1f}" '
                   f'height="{bars.y + bars.h - py:.1f}" fill="#444"/>')
    out.append("</svg>")
    return "\n".join(out)
