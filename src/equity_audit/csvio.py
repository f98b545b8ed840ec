"""Reading the comma-delimited bodies of audit logs and population files.

``_read_csv_columns`` reads chosen columns of a UTF-8 CSV file; the
loaders in :mod:`equity_audit.dataio` give it a plan of columns and
converters. Every input is opened as bytes and read once, front to back,
a regular file and a pipe alike: nothing is seeked, rewound or opened
twice. Each chunk of the body goes down one ladder of readers, the same
for every plan (``_fast_columns``): a byte grid and a separator scan,
which read integer cells of one digit, then ``np.loadtxt``; the csv
module reads on from the first chunk none of them takes.
``_binary_file``, ``_decoded_lines`` and ``_header_row`` also serve the
student-file reader there.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .inputs import decode_error, open_error

# data rows converted at a time; bounds the raw cells held in memory
_BATCH_ROWS = 4096
# bytes the csv path decodes at a time, completed to a line end
_BLOCK_CHARS = 1 << 16
# bytes of body a fast reader takes at a time, completed to a line end;
# bounds the integer kernel's working arrays
_KERNEL_CHARS = 1 << 22
# bytes numpy's reader takes otherwise than csv.reader and int()/float()
# do: the quote, '\r', and the separators \x1c-\x1f, which numpy's number
# parser skips as whitespace. Non-ASCII text is kept from numpy as well: its
# integer parser reads some code points as digits. For an all-integer plan,
# each \r\n line end of a chunk is made \n before this test, and on the
# chunks the byte grid reads, its own check (only digits, "," and "\n")
# stands in for it. The separator scan and numpy read only plain chunks.
_NOT_PLAIN = b'"\r\x1c\x1d\x1e\x1f'
_INT64 = range(-(2**63), 2**63)
# an integer column whose every value lies here is int8, any other int64
_INT8 = np.iinfo(np.int8)
_COMMA, _NEWLINE, _ZERO = b",\n0"
# a digit and "," read as one little-endian 16-bit pair, XORed with this,
# give the digit's value; a byte XOR "0" is under 10 only for a digit
_COMMA_PAIR = _COMMA << 8 | _ZERO
# XORed in as well, a digit and "\n" give the digit's value
_NEWLINE_FLIP = (_COMMA ^ _NEWLINE) << 8
_DTYPES = {int: np.int64, float: np.float64, str: object}
_LINE_END = re.compile(rb"[\r\n]")


def _convert_batch(batch: list, first_row: int, cols: list, fault) -> list[np.ndarray]:
    """Convert the chosen columns of non-blank rows numbered from ``first_row``."""
    try:
        return [
            np.fromiter(map(convert, map(itemgetter(i), batch)), _DTYPES[convert], len(batch))
            for _, i, convert in cols
        ]
    except (IndexError, TypeError, ValueError, OverflowError):
        pass
    # a short row or a bad cell: check row by row, so the first fault in row
    # order (and within a row, in column order) is the one reported; every
    # batch the column pass rejects has one
    for rownum, row in enumerate(batch, start=first_row):
        for name, i, convert in cols:
            cell = row[i] if i < len(row) else None
            try:
                if cell is None and convert is str:  # str() would read the missing cell as 'None'
                    raise ValueError(f"no {name!r} cell")
                value = convert(cell)
            except (TypeError, ValueError) as exc:
                raise fault(exc, cell, rownum, name) from None
            if convert is int and value not in _INT64:
                raise DataFormatError(f"integer out of range, got {cell!r}", row=rownum, column=name)


def _fast_columns(chunk: bytes, width: int, cols: list) -> list[np.ndarray] | None:
    """The chosen columns of a chunk of whole lines, read by the first fast reader that takes it; None if none does.

    For an all-integer plan, each ``\r\n`` line end is read as ``\n``,
    as the csv module reads it, and the byte grid (``_grid_columns``),
    which vouches for its own bytes, goes first. Then, only if the chunk
    is plain (``_is_plain``), an all-integer plan goes to the separator
    scan (``_separated_columns``), and any plan to ``np.loadtxt`` over
    the chunk's lines, split at ``\n`` only: ``str.splitlines`` would
    also split at characters such as ``\x0b`` and ``\x0c``, which are
    plain and which the csv module keeps inside a cell.
    """
    integers = all(convert is int for _, _, convert in cols)
    if integers:
        if b"\r" in chunk:  # the test is one memchr; the replace copies the chunk
            chunk = chunk.replace(b"\r\n", b"\n")
        data = np.frombuffer(chunk, np.uint8)
        if data.size and data[-1] != _NEWLINE:
            data = np.append(data, np.uint8(_NEWLINE))
        indices = [i for _, i, _ in cols]
        columns = _grid_columns(data, width, indices)
        if columns is not None:
            return columns
    if not _is_plain(chunk):
        return None
    if integers:
        columns = _separated_columns(data, width, indices)
        if columns is not None:
            return columns
    return _loadtxt(chunk.decode("ascii").split("\n"), cols)


def _is_plain(block: bytes) -> bool:
    """Whether a block of whole lines is plain: ASCII, none of ``_NOT_PLAIN``, no line over the field size limit."""
    if not block.isascii() or any(c in block for c in _NOT_PLAIN):
        return False
    # a line is over the limit where limit + 1 bytes in a row hold no "\n"
    limit, start = csv.field_size_limit(), 0
    while len(block) - start > limit:
        end = block.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return False
        start = end + 1
    return True


def _loadtxt(lines: list[str], cols: list) -> list[np.ndarray] | None:
    """The chosen columns of ``lines``, read by ``np.loadtxt``; None on an error or a warning.

    On plain text (``_is_plain``) numpy accepts a subset of what
    ``csv.reader`` and ``int()``/``float()`` accept and gives the same
    values, so any other text (a bad cell, a short row, ``1_0``) goes to
    the csv path, which reports the fault.

    Each column is a view into one structured table. Copying the table
    into contiguous columns made a 200k-row ``audit`` no faster (2-core
    VM, numpy 2.4): the copy cost what the strided passes saved. An
    all-integer chunk comes here only when the byte grid and the
    separator scan turn it down.
    """
    dtype = [(str(k), _DTYPES[convert]) for k, (_, _, convert) in enumerate(cols)]
    with warnings.catch_warnings():
        # e.g. "input contained no data", or an older numpy's float-as-int DeprecationWarning
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                lines, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                usecols=[i for _, i, _ in cols], ndmin=1,
            )
        except (ValueError, Warning):  # what numpy rejects, the csv path reads or reports
            return None
    return [table[name] for name, _ in dtype]


def _grid_columns(data: np.ndarray, width: int, indices: list[int]) -> list[np.ndarray] | None:
    """Columns ``indices`` of newline-ended text whose every cell is one digit, read as a byte grid; else None.

    Such text is rows of ``2 * width`` bytes: a digit at every even
    offset, and ``,`` at every odd offset but the last, which is ``\\n``.
    Each cell and the separator after it are read as one 16-bit pair and
    XORed with its template (``_COMMA_PAIR``, and ``_NEWLINE_FLIP`` too
    at a row's end), which leaves the digit's value in a pair that fits
    and 10 or more in any other. So text the grid takes is plain
    (``_is_plain``): it holds only digits, ``,`` and ``\\n``, and it is
    turned down when its rows are over the field size limit. The pairs
    are the one working array; one cast of their transpose gives every
    column as a C-contiguous int8 row of one block, which holds the
    columns not in ``indices`` too: a digit always fits, and a wider
    column would only be narrowed again (``_narrowed``).
    """
    if data.size % (2 * width) or 2 * width - 1 > csv.field_size_limit():
        return None
    pairs = data.view("<u2") ^ np.uint16(_COMMA_PAIR)
    cells = pairs.reshape(-1, width)
    cells[:, -1] ^= np.uint16(_NEWLINE_FLIP)
    if pairs.max(initial=0) > 9:
        return None
    columns = cells.T.astype(np.int8, order="C")
    return [columns[i] for i in indices]


def _separated_columns(data: np.ndarray, width: int, indices: list[int]) -> list[np.ndarray] | None:
    """Columns ``indices`` of newline-ended rows of ``width`` cells, found by a scan for separators; else None.

    Each cell of ``indices`` must be one digit; the columns are int8 rows of one block, as the grid gives them.
    """
    newline = data == _NEWLINE
    separator = newline | (data == _COMMA)
    ends = np.flatnonzero(separator)
    rows = len(ends) // width
    # rows of the grid are lines only if its last column holds every newline
    if len(ends) % width or np.count_nonzero(newline) != rows or not newline[ends[width - 1::width]].all():
        return None
    # at each separator: the byte before it as a digit (a byte below "0"
    # wraps past 9) where that byte is its cell's only one, else 255
    lone = np.concatenate(([np.uint8(255)], data[:-1] - np.uint8(_ZERO)))
    lone[2:] |= ~separator[:-2] * np.uint8(255)
    cells = lone[ends].reshape(rows, width)[:, indices]
    if cells.max(initial=0) > 9:  # a longer cell, or one that is no digit
        return None
    return list(cells.T.astype(np.int8, order="C"))


def _body_columns(raw, width: int, cols: list, fault) -> list[np.ndarray]:
    """The chosen columns of the body: the rest of the binary file ``raw``.

    The body is read in chunks of about ``_KERNEL_CHARS`` bytes of whole
    lines, and each chunk is offered to a fast reader (``_fast_columns``).
    From the first chunk it turns down to the end of the file, the csv
    module reads the body (``_stored_columns`` over ``_decoded_lines``),
    numbering rows on from those already read: every row a fast reader
    takes is non-blank and fault-free. An empty body is one empty chunk,
    which the byte grid reads as no rows for an all-integer plan.
    """
    read = partial(_whole_lines, raw, _KERNEL_CHARS)
    pieces, done = [], 0
    for chunk in chain([read()], iter(read, b"")):
        values = _fast_columns(chunk, width, cols)
        if values is None:
            reader = csv.reader(chain(_decoded_lines(io.BufferedReader(io.BytesIO(chunk))), _decoded_lines(raw)))
            pieces.append(_stored_columns(reader, cols, fault, done + 1))
            break
        pieces.append(values)
        done += len(values[0])
    return pieces[0] if len(pieces) == 1 else [np.concatenate(column) for column in zip(*pieces)]


def _narrowed(column: np.ndarray) -> np.ndarray:
    """An integer column at its width, in a block of its own: int8 when every value lies in [-128, 127] (an empty column too), else int64.

    An int64 column of numpy's table is copied, not left a view that keeps the whole table alive.
    """
    if column.dtype == np.int8 or not column.size or (_INT8.min <= column.min() and column.max() <= _INT8.max):
        return column.astype(np.int8, copy=False)
    return np.ascontiguousarray(column)


def _store(column: np.ndarray, start: int, values: np.ndarray) -> np.ndarray:
    """``column`` with ``values`` written from ``start``, doubled in length when full.

    Growing one buffer per column, rather than keeping every batch's arrays
    until the end, leaves no trail of small blocks behind in the heap.
    """
    end = start + len(values)
    if end > len(column):
        grown = np.empty(max(end, 2 * len(column)), dtype=column.dtype)
        grown[:start] = column[:start]
        column = grown
    column[start:end] = values
    return column


def _stored_columns(reader, cols: list, fault, first_row: int) -> list[np.ndarray]:
    """The chosen columns of the rows ``reader`` yields, numbered from ``first_row`` and converted ``_BATCH_ROWS`` rows at a time."""
    stored = [np.empty(_BATCH_ROWS, dtype=_DTYPES[convert]) for _, _, convert in cols]
    done = 0
    while True:
        chunk = []
        try:
            chunk.extend(islice(reader, _BATCH_ROWS))
        except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
            batch = list(filter(None, chunk))
            _convert_batch(batch, first_row + done, cols, fault)  # a fault in an earlier row comes first
            raise DataFormatError(f"unreadable row: {exc}", row=first_row + done + len(batch)) from None
        except UnicodeDecodeError:
            _convert_batch(list(filter(None, chunk)), first_row + done, cols, fault)
            raise
        if not chunk:  # a copy releases the spare length the doubling left
            return [column[:done].copy() if len(column) > done else column for column in stored]
        batch = list(filter(None, chunk))
        for k, values in enumerate(_convert_batch(batch, first_row + done, cols, fault)):
            stored[k] = _store(stored[k], done, values)
        done += len(batch)


def _read_csv_columns(path: Path, plan, fault) -> tuple[list[str], list]:
    """Read chosen columns of a comma-delimited UTF-8 file.

    ``plan(header)`` checks the header row and returns ``(name, convert)``
    pairs, ``convert`` being int, float or str, in the order the cells of a
    row are checked; ``fault(exc, cell, row, name)`` builds the error for a
    cell ``convert`` rejects. Returns the header and one column per pair:
    for int, an int8 array when every value lies in [-128, 127] (an empty
    column too) and an int64 array otherwise, whichever reader took the
    body; for float, a float64 array; for str, a list of str.

    Rows read as ``csv.DictReader`` reads them: blank lines are skipped and
    not counted, a name given twice reads its last column, a short row
    reads None in its missing cells and extra cells are ignored. Cells go
    through Python's own ``int()``/``float()``; an integer outside the
    int64 range is a fault too.

    One source, one ladder of readers. The file, a regular file or a pipe
    alike, is read once as bytes: the header a line at a time
    (``_read_header``), then the body in chunks (``_body_columns``), each
    offered to the fast readers in one order (``_fast_columns``): when
    every pair converts by int, a byte grid and then a scan for
    separators, which read one digit a planned cell; then, for any plan,
    ``np.loadtxt``. From the first chunk that every fast reader turns down,
    the csv module reads the rest of the file. All give the same values
    and the same faults.
    """
    with _binary_file(path) as raw:
        header = _read_header(raw, path)
        columns = plan(header)
        index = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last column
        cols = [(name, index[name], convert) for name, convert in columns]
        values = _body_columns(raw, len(header), cols, fault)
    return header, [
        column.tolist() if convert is str else _narrowed(column) if convert is int else column
        for (_, _, convert), column in zip(cols, values)
    ]


def _whole_lines(raw, size: int) -> bytes:
    """``size`` bytes of the buffered binary file ``raw`` and the rest of the line they end in (or the file); b"" at the end.

    A line ends at ``\n``, ``\r\n`` or a bare ``\r``, as in
    ``_decoded_lines``; a ``\r`` is half of a ``\r\n`` only when the
    next byte is ``\n``. Whole lines, so no ``\r\n`` is split between two
    reads, and a file whose lines end in a bare ``\r`` is read in blocks
    of about ``size`` bytes too. ``_whole_lines(raw, 1)`` is one line.
    """
    parts = [raw.read(size)]
    while parts[-1] and parts[-1][-1:] != b"\n":
        if parts[-1][-1:] == b"\r":
            if raw.peek(1)[:1] == b"\n":
                parts.append(raw.read(1))
            break
        ahead = raw.peek()  # the buffered bytes: at least one unless at the end
        end = _LINE_END.search(ahead)
        parts.append(raw.read(end.end() if end else len(ahead)))
    return b"".join(parts)


def _decoded_lines(raw):
    """The lines of the rest of the binary file ``raw``, decoded from UTF-8 about ``_BLOCK_CHARS`` bytes of whole lines at a time.

    Lines break where a ``newline=""`` text file breaks them: at ``\n``,
    ``\r`` and ``\r\n``. A block that does not decode is decoded a line
    at a time, so the lines above its first undecodable byte are yielded
    before the UnicodeDecodeError is raised.
    """
    for block in iter(partial(_whole_lines, raw, _BLOCK_CHARS), b""):
        try:
            lines = io.StringIO(block.decode("utf-8"), newline="")
        except UnicodeDecodeError:
            lines = map(partial(bytes.decode, encoding="utf-8"), block.splitlines(keepends=True))
        yield from lines


@contextmanager
def _binary_file(path: Path):
    """The file at ``path`` opened as bytes, a regular file or a pipe alike.

    An unopenable path, or bytes that do not decode (a UnicodeDecodeError
    raised while the file is read), raise DataFormatError. The csv path
    decodes a line at a time where a block does not decode
    (``_decoded_lines``), so the rows above an undecodable byte are
    checked first and a fault among them is raised instead.
    """
    try:
        raw = path.open("rb")
    except OSError as exc:
        raise open_error(path, exc) from None
    with raw:
        try:
            yield raw
        except UnicodeDecodeError as exc:
            raise decode_error(path, exc) from None


def _read_header(raw, path: Path) -> list[str]:
    """The header row of the binary file ``raw``.

    The header is read by ``csv.reader`` over lines taken one at a time
    (``_whole_lines(raw, 1)``), so when it is done the file is at the
    start of the body.
    """
    lines = map(partial(bytes.decode, encoding="utf-8"), iter(partial(_whole_lines, raw, 1), b""))
    return _header_row(csv.reader(lines), path)


def _header_row(reader, path: Path) -> list[str]:
    try:
        header = next(reader, None)
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise DataFormatError(f"unreadable header row: {exc}") from None
    if header is None:
        raise DataFormatError(f"{path} is empty (no header row)")
    return header
