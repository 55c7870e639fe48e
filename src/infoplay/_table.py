"""The text format that every CSV table of the package is written in."""


def _field(value) -> str:
    if value is None:  # a value the run could not produce
        return ""
    if isinstance(value, float):  # numpy's float64 is a float too
        return f"{value:.10g}"
    return str(value)


def csv_text(header, rows, seed: int | None = None) -> str:
    """CSV text of the iterable ``rows`` under the column names ``header``,
    after a ``# seed=<seed>`` line when ``seed`` is given.  A field is
    empty for None, ``.10g`` for a float and ``str`` of anything else."""
    lines = [] if seed is None else [f"# seed={seed}"]
    lines.append(",".join(header))
    lines.extend(",".join(map(_field, row)) for row in rows)
    return "\n".join(lines) + "\n"
