"""Minimal self-contained SVG line charts for scan results.

No external renderer: the chart is a hand-assembled SVG 1.1 document with
axes, one polyline per (epsilon, method) series, and a dashed horizontal
line per epsilon at the comparison bound.
"""

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]

MARGIN_LEFT = 70
MARGIN_RIGHT = 25
MARGIN_TOP = 40
MARGIN_BOTTOM = 55
PLOT_W = 560
PLOT_H = 320
TITLE = "Lyapunov exponent scan"


def _fmt(x):
    return f"{x:.2f}"


def write_scan_svg(path, rows):
    """Write a gamma_hat vs. z-argument chart for a list of scan rows.

    Each row is a mapping with keys ``z_arg``, ``epsilon``, ``method``,
    ``gamma_hat`` and ``bound``.
    """
    if not rows:
        raise ValueError("no rows to plot")

    series = {}
    bounds = {}
    for row in rows:
        key = (row["epsilon"], row["method"])
        series.setdefault(key, []).append((row["z_arg"], row["gamma_hat"]))
        bounds[row["epsilon"]] = row["bound"]

    ys = [y for pts in series.values() for _, y in pts] + list(bounds.values())
    ymin, ymax = min(ys), max(ys)
    pad = 0.1 * (ymax - ymin) or 0.1
    ymin -= pad
    ymax += pad

    def sx(t):
        return MARGIN_LEFT + t * PLOT_W

    def sy(y):
        return MARGIN_TOP + (ymax - y) / (ymax - ymin) * PLOT_H

    width = MARGIN_LEFT + PLOT_W + MARGIN_RIGHT
    height = MARGIN_TOP + PLOT_H + MARGIN_BOTTOM
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    out.append(
        f'<text x="{width / 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{TITLE}</text>'
    )

    # Axes with a few labeled ticks.
    ax = 'stroke="black" stroke-width="1"'
    out.append(
        f'<line x1="{sx(0)}" y1="{sy(ymin)}" x2="{sx(1)}" y2="{sy(ymin)}" {ax}/>'
    )
    out.append(
        f'<line x1="{sx(0)}" y1="{sy(ymin)}" x2="{sx(0)}" y2="{sy(ymax)}" {ax}/>'
    )
    for i in range(5):
        t = i / 4
        out.append(
            f'<line x1="{sx(t)}" y1="{sy(ymin)}" x2="{sx(t)}" y2="{sy(ymin) + 5}" {ax}/>'
        )
        out.append(
            f'<text x="{sx(t)}" y="{sy(ymin) + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
        y = ymin + t * (ymax - ymin)
        out.append(
            f'<line x1="{sx(0) - 5}" y1="{sy(y)}" x2="{sx(0)}" y2="{sy(y)}" {ax}/>'
        )
        out.append(
            f'<text x="{sx(0) - 9}" y="{sy(y) + 4}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(y)}</text>'
        )
    out.append(
        f'<text x="{sx(0.5)}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">argument of z (turns)</text>'
    )

    eps_order = sorted({eps for eps, _ in series})
    for (eps, method), pts in sorted(series.items()):
        color = PALETTE[eps_order.index(eps) % len(PALETTE)]
        dash = ' stroke-dasharray="6,3"' if method == "phaseAverage" else ""
        pts = sorted(pts)
        coords = " ".join(f"{sx(t):.2f},{sy(y):.2f}" for t, y in pts)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
            f'points="{coords}"/>'
        )
    for eps, bound in sorted(bounds.items()):
        color = PALETTE[eps_order.index(eps) % len(PALETTE)]
        out.append(
            f'<line x1="{sx(0)}" y1="{sy(bound)}" x2="{sx(1)}" y2="{sy(bound)}" '
            f'stroke="{color}" stroke-width="1" stroke-dasharray="2,4"/>'
        )

    # Legend.
    for i, eps in enumerate(eps_order):
        color = PALETTE[i % len(PALETTE)]
        y = MARGIN_TOP + 14 * i
        out.append(
            f'<line x1="{sx(1) - 110}" y1="{y}" x2="{sx(1) - 85}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{sx(1) - 80}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">eps = {eps:g}</text>'
        )

    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
