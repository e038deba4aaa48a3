"""Every committed ``BENCH_<n>.json``, the record that ``tools/pairs.py
--json`` writes, has the keys and types of one schema.  Values are never
checked: they are measurements of one machine on one day."""
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

NUMBER = (int, float)
SIDE = {"values": [NUMBER], "median": NUMBER, "q1": NUMBER, "q3": NUMBER}
SCHEMA = {
    "schema": int, "workload": str, "parent": {"rev": str},
    "change": {"base": str, "diff_sha256": str}, "python": str, "cores": int, "seed": int,
    "seconds": NUMBER, "pairs": int,
    "metrics": {str: {"unit": str, "better": str, "parent": SIDE, "change": SIDE,
                      "change_won": int}},
    "items": {str: {"parent": SIDE, "change": SIDE}},
}


def mismatches(value, schema, path="$"):
    """Where value departs from schema.  A dict schema keyed by ``str``
    alone maps any keys, any other dict exactly its keys; a one-element list
    schema types every element; a type or tuple of types is an isinstance
    test, under which a bool is neither an int nor a number."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            return [f"{path}: not an object"]
        if list(schema) == [str]:
            return [m for k, v in value.items()
                    for m in mismatches(v, schema[str], f"{path}.{k}")]
        if set(value) != set(schema):
            return [f"{path}: keys {sorted(value)} are not {sorted(schema)}"]
        return [m for k in schema for m in mismatches(value[k], schema[k], f"{path}.{k}")]
    if isinstance(schema, list):
        if not isinstance(value, list) or not value:
            return [f"{path}: not a nonempty list"]
        return [m for i, v in enumerate(value) for m in mismatches(v, schema[0], f"{path}[{i}]")]
    if isinstance(value, bool) or not isinstance(value, schema):
        return [f"{path}: {value!r} is not {schema}"]
    return []


def test_every_committed_bench_file_has_the_schema():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        assert mismatches(json.loads(path.read_text()), SCHEMA) == [], path.name


def test_the_schema_check_names_what_departs():
    side = {"values": [1.0, 2], "median": 1.5, "q1": 1.0, "q3": 2}
    assert mismatches(side, SIDE) == []
    assert mismatches({**side, "median": True}, SIDE)[0].startswith("$.median: True is not")
    assert mismatches({**side, "values": []}, SIDE) == ["$.values: not a nonempty list"]
    assert mismatches({"median": 1}, SIDE)[0].startswith("$: keys")
    assert (mismatches({"a": {"rev": 1}}, {str: {"rev": str}})
            == ["$.a.rev: 1 is not <class 'str'>"])


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def test_what_pairs_writes_has_the_schema(monkeypatch):
    pairs = load_pairs()
    monkeypatch.setattr(pairs, "git", lambda *args, cwd: "0" * 40)
    args = type("Args", (), {"workload": "kan-lifting", "seed": 7, "seconds": 8.0, "pairs": 2})
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    run = ({m["name"]: 1.0 for m in metrics}, {"kan id torus D3": 1.9, "kan torus->pt D2": 0.4})
    out = pairs.summary(metrics, [run, run], [run, run], pairs.describe(ROOT, "HEAD", args))
    assert mismatches(json.loads(json.dumps(out)), SCHEMA) == []


def test_the_trajectory_has_one_row_per_bench_file_in_order():
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    records = [(p.name, json.loads(p.read_text())) for p in files]
    table = load_pairs().trajectory(records).splitlines()
    assert len(table) == 2 + len(files)
    for row, (name, b) in zip(table[2:], records):
        assert row.startswith(f"| {name} | {b['workload']} | {b['seed']} | {b['pairs']} | ")
        assert row.count("|") == table[0].count("|") == table[1].count("|")
        assert row.endswith(f"({b['metrics']['op_ms_p50']['change_won']}/{b['pairs']}) |")
