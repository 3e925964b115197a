"""The fenced python blocks of README.md run, and print what they claim."""
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
# "# -> value": a quoted string, a bracketed array or one token
_CLAIM = re.compile(r'# -> ("[^"]*"|\[[^\]]*\]|\S+)')


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.S | re.M)


def test_readme_python_blocks_run():
    blocks = _python_blocks()
    assert blocks, "README.md has no python block"
    printed = []
    # the blocks form one session: later ones use names the first imports
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    claims = []
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        claims += [_CLAIM.search(line) for line in block.splitlines() if "print(" in line]
    # every print runs once, in order
    assert len(printed) == len(claims)
    for got, claim in zip(printed, claims):
        if claim:
            assert got == claim.group(1).strip('"')
