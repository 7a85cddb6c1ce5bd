"""The committed _speedups.c must be the Cython translation of the committed
_speedups.pyx.

Cython quotes the source before the C code of each statement, in a block
comment that opens with the source position, shows a few lines around the
statement, and marks the statement's own line. Those quotes must still be
the lines of the .pyx, so an edit to the .pyx without regenerating the C
fails here; no compiler or Cython is needed.
"""

from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "raag"
POSITION = '/* "raag/_speedups.pyx":'
MARK = "             # <<<<<<<<<<<<<<"


def _quoted_lines(c_lines):
    """(pyx line number, quoted text) for every line quoted in the C file."""
    for k, line in enumerate(c_lines):
        head = line.strip()
        if not head.startswith(POSITION):
            continue
        lineno = int(head[len(POSITION):])
        end = next(j for j in range(k + 1, len(c_lines)) if c_lines[j].strip() == "*/")
        quoted = [q[3:] if q.startswith(" * ") else q[2:] for q in c_lines[k + 1:end]]
        marked = [i for i, q in enumerate(quoted) if q.endswith(MARK)]
        assert len(marked) == 1, f"C line {k + 1}: expected one marked line, got {len(marked)}"
        first = lineno - marked[0]
        for i, q in enumerate(quoted):
            yield first + i, q[: -len(MARK)] if i == marked[0] else q


def test_generated_c_quotes_the_pyx():
    pyx = (SOURCES / "_speedups.pyx").read_text().splitlines()
    c_lines = (SOURCES / "_speedups.c").read_text().splitlines()
    covered = set()
    for lineno, text in _quoted_lines(c_lines):
        assert 1 <= lineno <= len(pyx), f"_speedups.c quotes line {lineno} of a {len(pyx)}-line .pyx"
        assert text.rstrip() == pyx[lineno - 1].rstrip(), (
            f"_speedups.pyx line {lineno} differs from its quote in _speedups.c; "
            "regenerate the C file with Cython"
        )
        covered.add(lineno)
    defs = {i for i, line in enumerate(pyx, 1) if line.startswith("def ")}
    assert defs and defs <= covered
