"""Show which single-operator mutants of a spinorlab module the tier-1
suite kills.

    python scripts/mutants.py MODULE [FUNCTION ...]

MODULE names a file of src/spinorlab (``kernels``, ``symmetries``, ...).
With FUNCTION names, only code inside those functions is mutated; a name
may be qualified (``FourMomentum.frame``, ``check_dual_helicity_dirac.residuals``)
and covers everything nested in it.  The mutations, one per mutant:

* ``+`` <-> ``-``, ``*`` <-> ``/``, ``&`` <-> ``|`` in binary operations;
* ``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=`` in comparisons;
* a unary minus dropped (``-x`` becomes ``+x``);
* a nonzero float constant doubled, except 2.0, which becomes 1.0.

Annotations are left alone.  The script copies the repository, without
.git and caches, into a temporary directory (under $TMPDIR), checks that
the suite passes there on the unmutated module as ``ast.unparse`` re-prints
it, then writes each mutant over the module in turn and runs the suite with
``-x``.  A mutant is killed when the suite fails or runs out of time.  It
prints one KILLED or SURVIVED line per mutant, then the totals, and exits 0
unless the control run fails.  It runs the suite once per mutant, so it is
a local tool and not part of the tier-1 suite.
"""
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.BitAnd: "&",
    ast.BitOr: "|", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=",
}


class Mutant(NamedTuple):
    line: int
    col: int
    function: str  # qualified name of the enclosing def or class, or ""
    change: str


def _sites(tree, functions):
    """(mutant, apply) for every mutation site of the tree, in source order;
    apply() changes the tree in place."""
    found = []

    def visit(node, qualname):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
        wanted = functions is None or any(
            qualname == f or qualname.startswith(f + ".") for f in functions)
        if wanted:
            for mutant, apply in _node_sites(node):
                found.append((mutant._replace(function=qualname), apply))
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, qualname)

    visit(tree, "")
    return sorted(found, key=lambda site: (site[0].line, site[0].col, site[0].change))


def _node_sites(node):
    where = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), "")
    if isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
        new = _SWAPS[type(node.op)]
        yield (Mutant(*where, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[new]}"),
               lambda: setattr(node, "op", new()))
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                new = _SWAPS[type(op)]
                yield (Mutant(*where, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[new]}"),
                       lambda i=i, new=new: node.ops.__setitem__(i, new()))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield Mutant(*where, "-x -> +x"), lambda: setattr(node, "op", ast.UAdd())
    elif (isinstance(node, ast.Constant) and type(node.value) is float
          and node.value != 0.0):
        new = 1.0 if node.value == 2.0 else 2.0 * node.value
        yield (Mutant(*where, f"{node.value!r} -> {new!r}"),
               lambda: setattr(node, "value", new))


def mutants(source: str, functions=None):
    """(mutant, mutated source) for each mutation site of ``source``, or of
    the named functions only, in source order; no process is started."""
    count = len(_sites(ast.parse(source), functions))
    for i in range(count):
        tree = ast.parse(source)  # a fresh tree per mutant
        mutant, apply = _sites(tree, functions)[i]
        apply()
        yield mutant, ast.unparse(tree)


def _run_suite(workdir: Path):
    """(whether tier-1 passes in workdir, the tail of its output)."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    return proc.returncode == 0, "\n".join(proc.stdout.splitlines()[-15:])


def main(argv) -> int:
    if not argv:
        sys.stderr.write(__doc__)
        return 2
    module, functions = argv[0], argv[1:] or None
    source = (ROOT / "src" / "spinorlab" / f"{module}.py").read_text(encoding="utf-8")
    scratch = Path(tempfile.mkdtemp(prefix="mutants-"))
    workdir = scratch / "repo"
    try:
        shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".work"))
        target = workdir / "src" / "spinorlab" / f"{module}.py"
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        passed, tail = _run_suite(workdir)
        if not passed:
            print(f"control run failed: the unmutated module does not pass\n{tail}")
            return 1
        survived = killed = 0
        for mutant, mutated in mutants(source, functions):
            target.write_text(mutated, encoding="utf-8")
            alive = _run_suite(workdir)[0]
            survived, killed = survived + alive, killed + (not alive)
            print(f"{'SURVIVED' if alive else 'KILLED'} {module}.py:{mutant.line}:"
                  f"{mutant.col} {mutant.function or '<module>'}: {mutant.change}",
                  flush=True)
        print(f"{killed} killed, {survived} survived")
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
