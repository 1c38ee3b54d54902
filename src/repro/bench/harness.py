"""Figure/table runner: row declarations and text rendering.

A :class:`Figure` declares, per mode (quick/paper), the rows of the
paper's plot: each row maps a column to a plain value, a
:class:`~repro.bench.sweep.SweepPoint` (its latency in µs), an
:class:`Ms` (a point's time in ms) or a :class:`Ratio` of two earlier
columns.  :meth:`Figure.run` answers every point with one
:func:`~repro.bench.sweep.run_sweep` call — through the
``$REPRO_SWEEP_CACHE`` cache when set — and returns a
:class:`FigureResult` whose ``render()`` prints an aligned table like::

    Fig 7 — single-node allgather latency (us)
    elements   Hy+cray   Allgather+cray   Hy+ompi   Allgather+ompi
    1          0.90      3.47             1.20      3.77
    ...
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Figure", "FigureError", "FigureResult", "Ms", "Ratio",
           "point_id", "run_figure", "format_table"]


class FigureError(RuntimeError):
    """A point of a figure failed, so the figure has no result."""


@dataclass(frozen=True)
class Ms:
    """Row cell: *point*'s time in milliseconds (application runs)."""

    point: Any


@dataclass(frozen=True)
class Ratio:
    """Row cell: column *num* divided by column *den* of the same row."""

    num: str
    den: str


@dataclass
class FigureResult:
    """Outcome of one figure regeneration."""

    figure_id: str
    title: str
    columns: list[str]
    rows: list[dict]
    mode: str
    wall_seconds: float
    notes: str = ""

    def render(self) -> str:
        """Aligned plain-text table of the figure's series."""
        header = f"{self.title}  [mode={self.mode}]"
        table = format_table(self.columns, self.rows)
        tail = f"\n{self.notes}" if self.notes else ""
        return f"{header}\n{table}{tail}"

    def series(self, column: str) -> list[Any]:
        """One column as a list (row order)."""
        return [row.get(column) for row in self.rows]


def format_table(columns: list[str], rows: list[dict]) -> str:
    """Align *rows* under *columns*; floats rendered sensibly."""

    def fmt(v: Any) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            if v == 0:
                return "0"
            if abs(v) >= 1000:
                return f"{v:.0f}"
            if abs(v) >= 1:
                return f"{v:.2f}"
            return f"{v:.4f}"
        return str(v)

    rendered = [[fmt(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in rendered)) if rendered else len(c)
        for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


@dataclass
class Figure:
    """A regenerable paper artifact.

    Attributes
    ----------
    figure_id:
        Stable identifier (``fig7``, ``fig11a``, ``abl_sync``, …).
    title:
        Human title matching the paper's caption.
    paper_claim:
        One-sentence statement of the shape the paper reports (asserted
        loosely by the benchmark suite).
    rows:
        ``rows(mode)`` → the declared rows, in render order; each row's
        key order is the column order.
    """

    figure_id: str
    title: str
    paper_claim: str
    rows: Callable[[str], list[dict]]
    notes: str = ""

    def points(self, mode: str) -> list[tuple[str, Any]]:
        """Every distinct sweep point the rows of *mode* measure, named
        (:func:`point_id`), in first-use order."""
        return list(_points_of(self.rows(mode)).items())

    def run(self, mode: str = "quick", progress: bool = False) -> FigureResult:
        """Answer every point of the sweep; returns the populated result.
        Raises :class:`FigureError` when any point fails."""
        from repro.bench import sweep

        if mode not in ("quick", "paper"):
            raise ValueError("mode must be 'quick' or 'paper'")
        t0 = time.time()
        declared = self.rows(mode)
        points = _points_of(declared)
        # No retries: the simulator is deterministic, so a failed point
        # fails again.
        report = sweep.run_sweep(list(points.values()), names=list(points),
                                 cache=sweep.default_cache(), retries=0,
                                 progress=progress)
        if report["failures"]:
            raise FigureError(f"{self.figure_id}: " + "; ".join(
                f"{f['name']}: {f['error']}" for f in report["failures"]))
        records = report["points"]
        rows = []
        for cells in declared:
            row: dict[str, Any] = {}
            for column, cell in cells.items():
                if isinstance(cell, Ratio):
                    cell = row[cell.num] / row[cell.den]
                elif isinstance(cell, Ms):
                    cell = records[point_id(cell.point)]["latency_s"] * 1e3
                elif isinstance(cell, sweep.SweepPoint):
                    cell = records[point_id(cell)]["latency_us"]
                row[column] = cell
            rows.append(row)
        return FigureResult(
            figure_id=self.figure_id,
            title=self.title,
            columns=list(rows[0]) if rows else [],
            rows=rows,
            mode=mode,
            wall_seconds=time.time() - t0,
            notes=self.notes,
        )


def point_id(point) -> str:
    """A point's name within a figure: its :func:`point_name`, prefixed
    with the machine preset unless that is ``hazel_hen`` (the paper's
    Fig 7-10 run the same grid on two machines)."""
    from repro.bench.sweep import point_name

    name = point_name(point)
    return name if point.machine == "hazel_hen" else f"{point.machine}/{name}"


def _points_of(rows: list[dict]) -> dict:
    from repro.bench.sweep import SweepPoint

    found: dict = {}
    for row in rows:
        for cell in row.values():
            point = cell.point if isinstance(cell, Ms) else cell
            if isinstance(point, SweepPoint):
                name = point_id(point)
                if found.setdefault(name, point) != point:
                    raise ValueError(f"two different points named {name}")
    return found


def run_figure(figure_id: str, mode: str = "quick",
               progress: bool = False) -> FigureResult:
    """Look up and run a figure by id (see :data:`repro.bench.FIGURES`)."""
    from repro.bench.figures import get_figure

    return get_figure(figure_id).run(mode=mode, progress=progress)
