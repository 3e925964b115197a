"""A seeded fuzz of the command line: mutated job documents end in a report
or in one structured error record, never in a traceback or a warning."""
import copy
import json
import random
import warnings
from pathlib import Path

from spinorlab.cli import main
from test_cli import UNDECODABLE_TEXTS

GOLDEN_DIR = Path(__file__).parent / "goldens"
SEED = 20261019
MUTATED_DOCUMENTS = 600

_DIRECTION = {"theta": 0.7, "phi": 2.3}
EXTRA_BASES = [
    {"mode": "symmetries", "boost": True, "momentum": {"m": 1.0, "pmag": 3.0, **_DIRECTION},
     "spinor": {"family": "dual_helicity", "pair": "-+", "a": [1, 0], "c": [0.5, 0.5],
                **_DIRECTION}},
    {"mode": "symmetries", "momentum": {"m": 2.0, "pmag": 1.0, **_DIRECTION},
     "spinor": {"components": [[1, 0], [0.5, 0.25], [0, 1], [0.2, 0]]}},
    {"mode": "classify", "momentum": {"m": 1.0, "pmag": 0.5},
     "spinor": {"family": "singular_form", "b": [0.3, 0], "c": [1, 0.5], "d": [0, 1]}},
    {"mode": "symmetries", "momentum": {"m": 1.0, "pmag": 2.0, **_DIRECTION},
     "phases": {"theta1": 0.3, "zeta1": [0, 1]},
     "spinor": {"family": "parity_linked", "helicity": -1, "phase": 1.2}},
    {"mode": "sample", "family": "self_conjugate", "seed": 5, "count": 1000,
     "tolerances": {"epsilon_class": 1e-9, "epsilon_helicity": 1e-8}},
]

# values a mutation writes into a leaf or a new key, numbers three times in
# four; no string names the verify mode, and no integer exceeds a sample
# count of 1000
NUMBER_POOL = [0, 5e-324, -5e-324, 1e300, 1.7976931348623157e308]
OTHER_POOL = [True, False, "", "x", "++", "right", "sample", "symmetries", [],
              [1, 0], [[1, 0], [0, 0]]]
KEY_POOL = ["boost", "momentum", "phase", "theta", "pmag", "count", "family",
            "components", "tolerances", "epsilon_class", "zeta2", "extra"]


def _bases():
    goldens = [json.loads((GOLDEN_DIR / f"class{i}.job.json").read_text())
               for i in range(1, 7)]
    return goldens + EXTRA_BASES


def _paths(node, path=()):
    """Paths to every leaf, and separately to every object, of a document;
    the leaves leave out "mode" and "family", which a number only makes an
    unknown mode or family."""
    leaves, objects = [], []
    if isinstance(node, dict):
        objects.append(path)
        items = node.items()
    elif isinstance(node, list) and node:
        items = enumerate(node)
    else:
        return ([] if path[-1] in ("mode", "family") else [path]), []
    for key, child in items:
        sub_leaves, sub_objects = _paths(child, path + (key,))
        leaves += sub_leaves
        objects += sub_objects
    return leaves, objects


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _value(rnd):
    return copy.deepcopy(rnd.choice(NUMBER_POOL if rnd.random() < 0.75 else OTHER_POOL))


def _mutate(doc, rnd):
    """Set 1-3 leaves, or now and then delete or add a key instead."""
    for _ in range(rnd.randint(1, 3)):
        leaves, objects = _paths(doc)
        parent = _at(doc, rnd.choice(objects))
        action = rnd.random()
        if action < 0.8 and leaves:
            path = rnd.choice(leaves)
            _at(doc, path[:-1])[path[-1]] = _value(rnd)
        elif action < 0.9 and parent:
            del parent[rnd.choice(sorted(parent))]
        else:
            parent[rnd.choice(KEY_POOL)] = _value(rnd)
    return doc


def fuzz_cases():
    """(name, job text, --format value or None) of every fuzzed document, in a
    fixed order."""
    rnd = random.Random(SEED)
    bases = _bases()
    cases = [(f"undecodable-{name}-{fmt}", text, fmt)
             for name, text in UNDECODABLE_TEXTS.items()
             for fmt in ("structured", "human")]
    for index in range(MUTATED_DOCUMENTS):
        doc = _mutate(copy.deepcopy(rnd.choice(bases)), rnd)
        cases.append((f"mutated-{index}", json.dumps(doc),
                      rnd.choice(("structured", "human", None))))
    return cases


def run_case(text, fmt, path, capsys):
    """Exit code, stdout and stderr of one job text given by --job."""
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--job", str(path)] + (["--format", fmt] if fmt else []))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fuzzed_documents_end_in_a_report_or_one_error_record(tmp_path, capsys):
    codes = set()
    for name, text, fmt in fuzz_cases():
        code, out, err = run_case(text, fmt, tmp_path / "job.json", capsys)
        codes.add(code)
        assert code in (0, 2, 3, 4), name
        if code == 0:
            assert out and err == "", name
        else:
            assert out == "", name
            error = json.loads(err)["error"]
            assert set(error) == {"type", "message", "exit_code"}, name
            assert error["exit_code"] == code, name
            assert error["type"] in ("input", "domain"), name
    # the set reaches a report, an input error and a domain error
    assert codes == {0, 2, 3}
