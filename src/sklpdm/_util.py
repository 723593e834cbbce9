"""Small shared helpers (atomic file writes, the numeric-row CSV writer, positive integer checks)."""

import csv
import io
import os
import stat

from .errors import DataError


def atomic_write_text(path, text):
    """Write `text` to `path` via a temp file + rename so readers never see partial output.

    Raises DataError when the file cannot be written.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        # the rename keeps the temp file's mode: give it open(path, "w")'s, an existing file's or 0o666 less the umask
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            if os.path.isfile(path):
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def save_float_rows_csv(path, header, rows, lead=None, tail=None):
    """Atomically write a CSV file: `header`, then one line per row of the numeric matrix `rows`.

    Each number is written as its repr: an int as itself, a float as the
    shortest decimal that round-trips it. `lead` and `tail` are optional
    per-row fields (strings or ints) written before and after the numbers,
    quoted as `csv.writer` quotes them. Lines end in `\n`.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(header)
    quoted = {}

    def field(text):
        if text not in quoted:
            cell = io.StringIO()
            # two fields, because csv quotes a row made of one empty field
            csv.writer(cell, lineterminator="\n").writerow([text, ""])
            quoted[text] = cell.getvalue()[: -len(",\n")]
        return quoted[text]

    for i, row in enumerate(rows):
        line = ",".join(map(repr, row.tolist()))
        if lead is not None:
            line = field(lead[i]) + "," + line
        if tail is not None:
            line += "," + field(tail[i])
        buffer.write(line + "\n")
    atomic_write_text(path, buffer.getvalue())


def positive_int(value, name):
    """`value` as an int; DataError unless it is an integral number >= 1 (2 and 2.0 pass, 2.7 and "2" do not)."""
    try:
        if int(value) == value >= 1:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DataError(f"{name} must be a positive integer, got {value!r}")
