"""CSV report emitters with provenance headers, plus minimal SVG charts.

CSV is the contract; the self-contained SVG renderer is best-effort eye
candy for loss curves and histograms. Every writer formats floats with
repr(), numpy scalars as the Python values they hold, so that identical
inputs yield byte-identical files.
"""

import csv
import hashlib
import io

import numpy as np


def fmt(value):
    if isinstance(value, np.generic):  # numpy scalars print as Python values
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows, provenance=None):
    """Write rows with an optional `# key = value` provenance preamble."""
    out = io.StringIO()
    if provenance:
        for key, value in provenance.items():
            out.write(f"# {key} = {value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    with open(path, "w", newline="") as fh:
        fh.write(out.getvalue())


def read_csv(path):
    """Read a CSV written by write_csv; returns (provenance, header, rows)."""
    provenance, lines = read_csv_lines(path)
    header = lines[0][1] if lines else None
    return provenance, header, [fields for _lineno, fields in lines[1:] if fields]


def open_utf8(path):
    """The file's text as a newline="" stream, as open() would read it.

    A byte sequence that is not UTF-8 raises ValueError naming file and line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"not UTF-8 text ({exc.reason}) at {path}:{line}") from None


def read_csv_lines(path):
    """(provenance, [(line number, fields)]) of a CSV written by write_csv.

    Every line but the provenance comments is listed, a blank one with no fields.
    """
    provenance = {}
    lines = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    provenance[k.strip()] = v.strip()
                continue
            lines.append((lineno, next(csv.reader([line]))))
    return provenance, lines


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --- tiny SVG renderer --------------------------------------------------------

_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             'viewBox="0 0 {w} {h}">\n'
             '<rect width="{w}" height="{h}" fill="white"/>\n')
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _scale(vals, lo_out, hi_out):
    lo, hi = min(vals), max(vals)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo
    return lambda v: lo_out + (v - lo) / span * (hi_out - lo_out), lo, hi


def svg_line_chart(path, series, title="", width=640, height=400):
    """series: mapping label -> list of (x, y) points."""
    margin = 50
    parts = [_SVG_HEAD.format(w=width, h=height)]
    parts.append(f'<text x="{width / 2}" y="20" text-anchor="middle" '
                 f'font-family="monospace" font-size="14">{title}</text>\n')
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    if xs:
        to_x, _, _ = _scale(xs, margin, width - margin)
        to_y, y_lo, y_hi = _scale(ys, height - margin, margin)
        parts.append(f'<text x="8" y="{margin}" font-family="monospace" font-size="10">'
                     f'{y_hi:.4g}</text>\n')
        parts.append(f'<text x="8" y="{height - margin}" font-family="monospace" '
                     f'font-size="10">{y_lo:.4g}</text>\n')
        for i, (label, pts) in enumerate(series.items()):
            color = _COLORS[i % len(_COLORS)]
            coords = " ".join(f"{to_x(x):.2f},{to_y(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>\n')
            parts.append(f'<text x="{margin}" y="{margin + 14 * i}" fill="{color}" '
                         f'font-family="monospace" font-size="11">{label}</text>\n')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def svg_bar_chart(path, labels, values, title="", width=640, height=400):
    margin = 50
    parts = [_SVG_HEAD.format(w=width, h=height)]
    parts.append(f'<text x="{width / 2}" y="20" text-anchor="middle" '
                 f'font-family="monospace" font-size="14">{title}</text>\n')
    if len(values):
        top = max(max(values), 0.0)
        top = top if top > 0 else 1.0
        slot = (width - 2 * margin) / len(values)
        for i, (label, value) in enumerate(zip(labels, values)):
            bar_h = max(0.0, value) / top * (height - 2 * margin)
            x = margin + i * slot
            y = height - margin - bar_h
            parts.append(f'<rect x="{x + slot * 0.1:.2f}" y="{y:.2f}" '
                         f'width="{slot * 0.8:.2f}" height="{bar_h:.2f}" '
                         f'fill="{_COLORS[i % len(_COLORS)]}"/>\n')
            parts.append(f'<text x="{x + slot / 2:.2f}" y="{height - margin + 14}" '
                         f'text-anchor="middle" font-family="monospace" font-size="10">'
                         f'{label}</text>\n')
            parts.append(f'<text x="{x + slot / 2:.2f}" y="{y - 4:.2f}" '
                         f'text-anchor="middle" font-family="monospace" font-size="10">'
                         f'{value:.3f}</text>\n')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))
