"""A small column-oriented table (no pandas offline).

Used by the dataset and the experiment reports for aligned ASCII output.
"""

from __future__ import annotations

from repro.errors import DatasetError


class ColumnTable:
    """Named columns of equal length with ASCII rendering."""

    def __init__(self, columns: list[str]) -> None:
        if len(set(columns)) != len(columns):
            raise DatasetError("duplicate column names")
        self.columns = list(columns)
        self._data: dict[str, list] = {name: [] for name in columns}

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise DatasetError(f"row has {len(values)} values, table has "
                               f"{len(self.columns)} columns")
        for name, value in zip(self.columns, values):
            self._data[name].append(value)

    def __len__(self) -> int:
        return len(self._data[self.columns[0]]) if self.columns else 0

    def render(self, float_fmt: str = "{:.3f}") -> str:
        def fmt(value) -> str:
            if isinstance(value, float):
                return float_fmt.format(value)
            return str(value)

        rows = [[fmt(self._data[c][r]) for c in self.columns]
                for r in range(len(self))]
        widths = [max(len(self.columns[i]),
                      max((len(row[i]) for row in rows), default=0))
                  for i in range(len(self.columns))]
        header = "  ".join(name.ljust(w)
                           for name, w in zip(self.columns, widths))
        sep = "-" * len(header)
        lines = [header, sep]
        for row in rows:
            lines.append("  ".join(cell.rjust(w)
                                   for cell, w in zip(row, widths)))
        return "\n".join(lines)
