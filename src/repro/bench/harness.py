"""Timing and report plumbing shared by all experiments."""

from __future__ import annotations

import argparse
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass
class Timing:
    """Wall-clock samples of one measured operation."""

    samples: list[float]

    @property
    def best(self) -> float:
        return min(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def ms(self) -> str:
        """The best sample, formatted in milliseconds."""
        return f"{self.best * 1000:.1f}"

    def spread(self) -> dict:
        """Every sample plus min/median/max, in seconds."""
        return {
            "samples_s": list(self.samples),
            "min_s": self.best,
            "median_s": statistics.median(self.samples),
            "max_s": max(self.samples),
        }


def time_call(fn: Callable[[], object], repeats: int = 3) -> tuple[object, Timing]:
    """Run ``fn`` ``repeats`` times; return (last result, timing)."""
    samples = []
    result: object = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - started)
    return result, Timing(samples=samples)


class Table:
    """A fixed-width text table, in the spirit of the paper's result table."""

    def __init__(self, headers: Sequence[str]):
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def add(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([str(cell) for cell in cells])

    def render(self) -> str:
        grid = [self.headers] + self.rows
        widths = [
            max(len(row[column]) for row in grid)
            for column in range(len(self.headers))
        ]
        lines = []
        for row_number, row in enumerate(grid):
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
            if row_number == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


@dataclass
class Report:
    """The output of one experiment: title, tables, notes, raw data."""

    experiment: str
    title: str
    tables: list[tuple[str, Table]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add_table(self, caption: str, table: Table) -> None:
        self.tables.append((caption, table))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        parts = [f"== {self.experiment}: {self.title} =="]
        for caption, table in self.tables:
            parts.append(f"\n-- {caption} --")
            parts.append(table.render())
        if self.notes:
            parts.append("")
            parts.extend(f"* {note}" for note in self.notes)
        return "\n".join(parts)


def report_payload(report: Report) -> dict:
    """A JSON-serialisable view of one report (for the ``--json`` emitter).

    ``data`` keys become strings (e1 keys its raw cells by tuples) and
    unknown value types fall back to ``str``.
    """

    def jsonable(value):
        if isinstance(value, dict):
            return {str(key): jsonable(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [jsonable(item) for item in value]
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return str(value)

    return {
        "experiment": report.experiment,
        "title": report.title,
        "notes": list(report.notes),
        "data": jsonable(report.data),
    }


def run_cli(argv: list[str] | None = None) -> int:
    """The ``python -m repro.bench`` entry point.

    Parses experiment ids, runs each, prints its rendered
    report, and optionally writes the raw payloads as JSON: a single
    payload when one experiment ran, a list otherwise.
    """
    # Imported here: experiments.py itself imports this module.
    from repro.bench.experiments import EXPERIMENTS, run_experiment

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(EXPERIMENTS),
        help=f"experiment ids (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller data sizes for smoke runs"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help=(
            "write the raw report data as JSON: the payload of a single "
            "experiment, or a list of payloads when several ran"
        ),
    )
    args = parser.parse_args(argv)

    payloads = []
    for name in args.experiments:
        report = run_experiment(name, quick=args.quick)
        print(report.render())
        print()
        payloads.append(report_payload(report))
    if args.json:
        document = payloads[0] if len(payloads) == 1 else payloads
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0
