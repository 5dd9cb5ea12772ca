"""The campaign-file reader agrees with PyYAML, or refuses the input.

`config` reads campaign files with its own strict reader of a small YAML
subset. For every document here, the reader's value must equal what
`yaml.safe_load` returns, types included, or the reader must raise
ConfigError naming the line. It must never return a different value, so
a document PyYAML rejects must be refused too.
"""

import importlib.util
import random
import re
from pathlib import Path

import pytest
import yaml

import test_cli
from histrepair import config, synth
from histrepair.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
PATH = Path("campaign.yaml")
REFUSAL = re.compile(r"invalid YAML in campaign\.yaml: line \d+: ")


def _typed(value):
    """`value` with each scalar tagged by its type, so 1, 1.0 and True differ."""
    if isinstance(value, dict):
        return ("dict", [(_typed(k), _typed(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [_typed(v) for v in value])
    return (type(value).__name__, repr(value))


def _accepted(text: str) -> bool:
    """Whether the reader accepts `text`; asserts that it agrees with PyYAML."""
    try:
        expected = _typed(yaml.safe_load(text))
    except Exception:  # the YAML errors, and the int() of a bad '0b_'
        expected = None
    try:
        got = config._read_yaml(text, PATH)
    except ConfigError as exc:
        assert REFUSAL.match(str(exc)), str(exc)
        return False
    assert expected is not None, f"PyYAML rejects {text!r}; the reader returned {got!r}"
    assert _typed(got) == expected, text
    return True


# --- every campaign file the repo writes -------------------------------------

def _perfbench_campaign():
    spec = importlib.util.spec_from_file_location(
        "perfbench_campaign", ROOT / "perfbench" / "campaign.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _toy_variants(text: str):
    """The toy campaign and each variant of it that tests/test_cli.py writes."""
    yield text
    for old, new in [
        ("manifest: manifest.jsonl", "manifest: manifest_nofix.jsonl"),
        ("manifest: manifest.jsonl", "manifest: empty.jsonl"),
        ("manifest: manifest.jsonl\n", ""),
        ("configs: [non_history, fn_all, fn_pair, fl_diff]", "configs: [non_history]"),
        ("configs: [non_history, fn_all, fn_pair, fl_diff]", "configs: [fn_all, fn_all]"),
        ("configs: [non_history, fn_all, fn_pair, fl_diff]", "configs: fn_all"),
        *[("  mode: scripted\n", f"  mode: http\n  endpoint: {endpoint}\n")
          for endpoint in ("file:///etc/passwd", "ftp://models.example.invalid/v1",
                           "localhost:8080/v1")],
        *[(old, new) for old, new, _ in test_cli.BAD_VALUE_EDITS],
    ]:
        assert old in text
        yield text.replace(old, new, 1)
    for typo, key in test_cli.KEY_TYPOS:
        indent = "  " if "." in key else ""
        yield text.replace(typo, f"{indent}{key.rsplit('.', 1)[-1]}:", 1)
    for tail in ("budgets:\n  fl_dif: 100\n", "budgets:\n  fl_diff: 0\n",
                 "template_dir: templates\n", "guards:\n  max_steps: 5\n"):
        yield text + tail
    for section in ("guards", "provider", "budgets"):
        for value in (5, None):
            yield yaml.safe_dump({**yaml.safe_load(text), section: value})


def test_every_campaign_file_the_repo_writes(tmp_path):
    toy = synth.build_toy_campaign(tmp_path / "toy")["campaign"].read_text()
    perfbench = _perfbench_campaign()
    written = [perfbench.build(workload, 21, tmp_path / workload).yaml.read_text()
               for workload in perfbench.WORKLOADS]
    variants = list(_toy_variants(toy))
    # the variants that must be refused: the .nan guards and the second guards block
    refused = [text for text in variants + written if not _accepted(text)]
    assert len(refused) == 3
    assert all(".nan" in text or text.count("guards:") == 2 for text in refused)


def _readme_campaign() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Campaign file", 1)[1]
    return re.search(r"```yaml\n(.*?)```", section, re.S).group(1)


def test_readme_campaign_example_loads(tmp_path):
    text = _readme_campaign()
    assert _accepted(text)
    path = tmp_path / "campaign.yaml"
    path.write_text(text)
    cfg = config.load_campaign(path)
    assert cfg.manifest == tmp_path / "manifest.jsonl"
    assert cfg.configs == config.HEURISTICS
    assert (cfg.workers, cfg.language) == (4, "python")
    assert cfg.provider.rates() == (config.Decimal("0.28"), config.Decimal("0.42"))
    assert cfg.budgets == {"fl_diff": 12000, "fn_pair": 8000, "fn_all": 4000}


# --- scalars -----------------------------------------------------------------

# plain scalars YAML 1.1 reads as something other than the string, and
# forms whose reading is easy to get wrong; each is either read as PyYAML
# reads it or refused, in every position a scalar can take
ACCEPTED_SCALARS = ["tRUE", "y", "~", "null", "true", "FALSE", "a #c", "a#c",
                    "file:///x", "http://h:8/v1", "1.0e+3", "-0.0", "01.5", "1.", "+7",
                    "-12", "0", ".", "+", "-x", "it's", "'it''s'", '"dq # x"', "'a: b'"]
REFUSED_SCALARS = ["yes", "No", "on", "OFF", "0x10", "010", "1_000", "1:30", ".inf",
                   "-.inf", ".nan", "2024-01-01", "2001-12-14t21:59:43.10-05:00",
                   "1e3", "-.5", ".5", "0b1", "<<", "=", "&a x", "*a", "!!str x",
                   "|", ">", "%x", "@x", "`x", "a: b", "a:", "- a", '"a\\tb"', "'a",
                   "[a, [b]]", "{a: {b: c}}", "[a", "{a}", "{a:1}", "?x", ":x"]


@pytest.mark.parametrize("scalar", ACCEPTED_SCALARS + REFUSED_SCALARS)
def test_scalar_edge_cases(scalar):
    verdict = _accepted(f"k: {scalar}\n")
    assert verdict == (scalar in ACCEPTED_SCALARS)
    for text in (f"k: [{scalar}]\n", f"k: {{a: {scalar}}}\n", f"k:\n- {scalar}\n",
                 f"{scalar}: v\n", f"k:\n  {scalar}: v\n"):
        _accepted(text)


@pytest.mark.parametrize("text", ["", "\n", "# only a comment\n", "---\n", "--- # c\n"])
def test_empty_documents_read_as_null(text):
    assert _accepted(text)
    assert config._read_yaml(text, PATH) is None


@pytest.mark.parametrize("text, line, why", [
    ("a: 1\nb:\n\tc: 2\n", 3, "character '\\t' is not allowed"),
    ("a: 1\n  b: 2\n", 2, "unexpected indentation"),
    ("a:\n  - x\n  b: 1\n", 3, "unexpected indentation"),
    ("a: 1\na: 2\n", 2, "duplicate key 'a'"),
    ("a: {b: 1, b: 2}\n", 1, "duplicate key 'b'"),
    ("a: 1\n---\nb: 2\n", 2, "the only document marker allowed is a leading '---'"),
    ("a: [b,\n  c]\n", 1, "unclosed flow collection"),
    ("a: 'b\n  c'\n", 1, "unclosed quote"),
    ("a: |\n  text\n", 1, "block scalars"),
    ("a:\n-\n", 2, "empty sequence entry"),
    ("just text\n", 1, "expected 'key: value'"),
])
def test_refusal_names_the_line(text, line, why):
    with pytest.raises(ConfigError, match=rf"^invalid YAML in campaign\.yaml: line {line}: "):
        config._read_yaml(text, PATH)
    with pytest.raises(ConfigError, match=re.escape(why)):
        config._read_yaml(text, PATH)


# --- generated documents ------------------------------------------------------

PLAIN = ["a", "b1", "fl_diff", "x-y", "scripted-model", "COMPLETE_REPAIR_SIGNAL",
         "it's", "a b", "-x", "http://h:8/v", "a#c", "true", "False", "null", "~",
         "12", "-3", "+4", "0", "1.5", "-0.0", "1.0e+3", "tRUE", "y", "über", ".",
         "manifest.jsonl", "local-python", "a.b/c"]
KEYS = ["manifest", "out_dir", "configs", "guards", "max_steps", "k0", "k1", "k2",
        "x-y", "scripted-model", "fl_diff", "über", "a b"]
QUOTED_TEXT = ["", "0.28", "1.00", "a # b", "a: b", "it's", "[x]", "{y}", " pad ",
               "yes", ".inf", "#", "'", '"']


def _quoted(rng: random.Random) -> str:
    text = rng.choice(QUOTED_TEXT)
    if '"' not in text and rng.random() < 0.5:
        return f'"{text}"'
    return "'" + text.replace("'", "''") + "'"


def _scalar(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return _quoted(rng)
    return rng.choice(PLAIN)


def _key(rng: random.Random, used: set) -> str:
    key = rng.choice([k for k in KEYS if k not in used])
    used.add(key)
    return f"'{key}'" if rng.random() < 0.15 else key


def _comment(rng: random.Random) -> str:
    return "  # note: a, [b] 'c'" if rng.random() < 0.15 else ""


def _flow(rng: random.Random) -> str:
    if rng.random() < 0.5:
        items = [_scalar(rng) for _ in range(rng.randint(0, 4))]
        return "[" + ", ".join(items) + ("," if items and rng.random() < 0.2 else "") + "]"
    used: set = set()
    pairs = [f"{_key(rng, used)}: {_scalar(rng)}" for _ in range(rng.randint(0, 3))]
    return "{" + ", ".join(pairs) + "}"


def _mapping(rng: random.Random, indent: int, depth: int) -> list[str]:
    pad, used, lines = " " * indent, set(), []
    for _ in range(rng.randint(1, 5)):
        key = _key(rng, used)
        kind = rng.random()
        if kind < 0.4:
            lines.append(f"{pad}{key}: {_scalar(rng)}{_comment(rng)}")
        elif kind < 0.55:
            lines.append(f"{pad}{key}: {_flow(rng)}{_comment(rng)}")
        elif kind < 0.6:
            lines.append(f"{pad}{key}:{_comment(rng)}")
        elif kind < 0.8 or depth == 0:
            # a block sequence, at the key's own indent or deeper
            entry = pad + rng.choice(["", "  ", "    "]) + "- "
            lines.append(f"{pad}{key}:")
            lines += [entry + _scalar(rng) + _comment(rng)
                      for _ in range(rng.randint(1, 3))]
        else:
            lines.append(f"{pad}{key}:{_comment(rng)}")
            lines += _mapping(rng, indent + rng.choice([1, 2, 4]), depth - 1)
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# a comment", "   # an indented comment"]))
    return lines


def _document(rng: random.Random) -> str:
    lines = _mapping(rng, 0, 2)
    if rng.random() < 0.2:
        lines.insert(0, rng.choice(["---", "--- # campaign", "# header"]))
    return "\n".join(lines) + "\n"


def _mutated(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    at = rng.randrange(len(lines))
    line = lines[at]
    edit = rng.randrange(5)
    if edit == 0 and line:
        i = rng.randrange(len(line))
        lines[at] = line[:i] + line[i + 1:]
    elif edit == 1:
        i = rng.randrange(len(line) + 1)
        lines[at] = line[:i] + rng.choice(" :-#'\"[]{},\t!&*|>?%@~0.x") + line[i:]
    elif edit == 2:
        lines.insert(at, line)
    elif edit == 3:
        lines[at] = " " * rng.choice([1, 2]) + line if rng.random() < 0.5 else line[1:]
    else:
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], line
    return "\n".join(lines)


def test_generated_documents_read_as_pyyaml_reads_them():
    rng = random.Random(20241020)
    documents = [_document(rng) for _ in range(1200)]
    assert all(_accepted(text) for text in documents)


def test_mutated_documents_agree_with_pyyaml_or_are_refused():
    rng = random.Random(7)
    verdicts = [_accepted(_mutated(rng, _document(rng))) for _ in range(1500)]
    # both outcomes occur, so neither side of the contract is vacuous
    assert 300 < sum(verdicts) < 1200
