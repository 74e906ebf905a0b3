"""Instance files for the parse properties: valid texts and texts a few edits away.

``instance_texts`` draws a valid hypergraph or interval text with at most 12
vertices and 6 rows (a hypergraph is 3-uniform half of the time, when
n >= 3), then applies up to 3 edits:
inserted, deleted and replaced tokens; comment, blank and whitespace-only
lines; negative, short and long headers; a header row count one off; and
trailing content.  The text is joined with LF or CRLF line ends and is
returned as ``str`` or as UTF-8 ``bytes``, where it may also carry a byte
sequence that is not UTF-8.

Every token an edit inserts is at most 15 as an integer, so no header ``n``
exceeds 15.  The odd tokens are ones ``int`` accepts or that
sit near the comment rule: a sign, a leading zero, an underscore, a
non-ASCII digit, and whitespace that ``str.split`` or ``str.splitlines``
treats as a separator.
"""

from hypothesis import strategies as st

ODD_TOKENS = ("x", "#", "#1", "1#", "+2", "01", "1_0", "-0", "1.0", "٣",
              "\xa0", "\x0c", "\x85", " ")
TOKENS = st.one_of(st.integers(-3, 15).map(str), st.sampled_from(ODD_TOKENS))
# Row edits come up more often than header edits, which mask every row error.
EDITS = ("insert", "insert", "insert", "delete", "delete", "replace", "replace", "replace",
         "comment", "blank", "negative", "header", "count", "trailing")
NOT_UTF8 = (b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80")


def _rows(draw, intervals, n, m):
    three = draw(st.booleans())  # every edge of min(3, n) vertices, for the 3-uniform solvers
    rows = []
    for _ in range(m):
        if n == 0:
            rows.append(["0"])
        elif intervals:
            a = draw(st.integers(0, n - 1))
            rows.append([str(a), str(draw(st.integers(a, n - 1)))])
        else:
            size = min(3, n) if three else draw(st.integers(1, min(4, n)))
            vs = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
            rows.append([str(v) for v in (vs if draw(st.booleans()) else sorted(vs))])
    return rows


def _edit(draw, lines):
    kind = draw(st.sampled_from(EDITS))
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    if kind == "insert":
        line.insert(draw(st.integers(0, len(line))), draw(TOKENS))
    elif kind == "delete" and line:
        del line[draw(st.integers(0, len(line) - 1))]
    elif kind == "replace" and line:
        line[draw(st.integers(0, len(line) - 1))] = draw(TOKENS)
    elif kind == "comment":
        lines.insert(at, [*draw(st.sampled_from([["#"], ["", "#"], ["#x"]])), draw(TOKENS)])
    elif kind == "blank":
        lines.insert(at, draw(st.sampled_from([[], ["\t"], [" "]])))
    elif kind == "negative":
        lines[0] = [draw(st.sampled_from(["-1", *lines[0][:1]])), "-1"]
    elif kind == "header":  # one token short or one too many
        lines[0] = draw(st.sampled_from([lines[0][:1], [*lines[0], "0"]]))
    elif kind == "count" and len(lines[0]) == 2:
        lines[0] = [lines[0][0], str(max(0, len(lines) - 1 + draw(st.sampled_from([-1, 1]))))]
    elif kind == "trailing":
        lines.append([draw(TOKENS), draw(TOKENS)])


@st.composite
def instance_texts(draw, intervals=None):
    """A text in the hypergraph or interval format (or either, if ``intervals`` is
    None), as ``str`` or ``bytes``, with up to 3 edits."""
    if intervals is None:
        intervals = draw(st.booleans())
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 6))
    lines = [[str(n), str(m)], *_rows(draw, intervals, n, m)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        _edit(draw, lines)
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(sep.join(line) for line in lines) + draw(st.sampled_from(["", end]))
    if draw(st.booleans()):
        return text
    data = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data
