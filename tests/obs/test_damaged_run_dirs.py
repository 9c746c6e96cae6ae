"""Damaged run directories raise typed errors naming ``file:line``.

``repro report --run-dir`` and ``repro diff`` read files written outside
the process.  A damaged file must surface as an
:class:`~repro.errors.ObservabilityError` that names the file and line,
never as a raw ``KeyError``/``TypeError``/``AttributeError``/
``JSONDecodeError`` from deep inside the parser.
"""

import json
import shutil

import pytest

from repro.errors import ObservabilityError
from repro.obs import run_scenario
from repro.obs.analyze import Trace
from repro.obs.export import write_jsonl_trace
from repro.obs.spans import SpanCollector
from repro.sim.engine import Simulator
from repro.obs.diff import diff_runs
from repro.obs.report import report_run_dir


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("damaged") / "run"
    run = run_scenario(
        "loadbalance",
        seed=0,
        horizon=20.0,
        on_obs=lambda obs: obs.stream_to(directory),
    )
    run.obs.close_streams()
    return directory


@pytest.fixture
def damaged(run_dir, tmp_path):
    copy = tmp_path / "damaged"
    shutil.copytree(run_dir, copy)
    return copy


def _span(**fields):
    record = {
        "type": "span", "sid": 1, "seq": 1, "cat": "x", "name": "x",
        "group": "g", "lane": "l", "start": 0.0, "end": 1.0,
    }
    record.update(fields)
    return json.dumps(record)


def _append(path, *lines):
    """Append ``lines``; returns the line number of the first one."""
    first = len(path.read_text().splitlines()) + 1
    with path.open("a") as handle:
        handle.write("".join(line + "\n" for line in lines))
    return first


@pytest.mark.parametrize(
    "lines, message",
    [
        (['{"type":"span","seq":1}'], "missing 'sid'"),
        (["[1,2]"], "must be a JSON object"),
        (['{"type":"instant","seq":null,"cat":"x","name":"x","group":"g",'
          '"lane":"l","time":0.0}'], "seq must be an integer"),
        ([_span(sid="7")], "sid must be an integer"),
        (['{"type":"span",'], "not valid JSON"),
        (['{"type":["span"]}'], "unknown record type"),
        ([_span(start="abc")], "start must be a number"),
        ([_span(end=True)], "end must be a number"),
        (['{"type":"instant","seq":1,"cat":"x","name":"x","group":"g",'
          '"lane":"l","time":"0"}'], "time must be a number"),
        ([_span(cat=5)], "cat must be a string"),
        ([_span(lane=None)], "lane must be a string"),
        ([_span(parent="1")], "parent must be an integer or null"),
        ([_span(args=[1])], "args must be an object"),
    ],
)
def test_damaged_trace_jsonl(damaged, lines, message):
    path = damaged / "trace.jsonl"
    lineno = _append(path, *lines)
    with pytest.raises(ObservabilityError, match=message) as exc:
        Trace.load(path)
    assert f"trace.jsonl:{lineno}:" in str(exc.value)
    with pytest.raises(ObservabilityError, match=f"trace.jsonl:{lineno}:"):
        report_run_dir(damaged)


def test_damaged_trace_does_not_break_diff(run_dir, damaged):
    # The trace only powers span localization (diff reads side a's), so
    # diff reports the damaged file as differing instead of crashing.
    _append(damaged / "trace.jsonl", "[1,2]")
    report = diff_runs(damaged, run_dir)
    assert "trace.jsonl" in report.differing


@pytest.mark.parametrize("line", ["[1,2]", '{"time": 1.0,'])
def test_damaged_metric_stream(run_dir, damaged, line):
    path = damaged / "metrics" / "node0.jsonl"
    lineno = _append(path, line)
    with pytest.raises(ObservabilityError, match=f"node0.jsonl:{lineno}:"):
        diff_runs(run_dir, damaged)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda r: r.update({"Active::meminfo": "oops"}), "Active::meminfo must"),
        (lambda r: r.update({"Active::meminfo": None}), "Active::meminfo must"),
        (lambda r: r.update(time=True), "time must be a number"),
        (lambda r: r.pop("time"), "sample is missing 'time'"),
    ],
)
def test_non_number_metric_sample(run_dir, damaged, damage, message):
    # The sample differs from its twin, so diff parses it to localize
    # the divergence: a value that is not a number is damage, not data.
    path = damaged / "metrics" / "node0.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    damage(record)
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ObservabilityError, match=f"node0.jsonl:1: {message}"):
        diff_runs(run_dir, damaged)


def test_damaged_manifest(run_dir, damaged, tmp_path):
    intact = tmp_path / "intact"
    shutil.copytree(run_dir, intact)
    (intact / "manifest.json").write_text('{\n "seed": 0\n}\n')
    (damaged / "manifest.json").write_text('{\n "seed": 0,\n')
    with pytest.raises(ObservabilityError, match="manifest.json:3:"):
        diff_runs(intact, damaged)


def test_damaged_counters_json(damaged):
    path = damaged / "counters.json"
    path.write_text(path.read_text()[:-10])  # a torn write
    lines = len(path.read_text().splitlines())
    with pytest.raises(ObservabilityError, match=f"counters.json:{lines}:"):
        report_run_dir(damaged)
    path.write_text('{"counters": {"resolves": "many"}}\n')
    with pytest.raises(ObservabilityError, match="counters.json: counters"):
        report_run_dir(damaged)


def test_unfinalized_trace_loads_back(tmp_path):
    # Spans still open at export are written with "seq": null; loading
    # them back gives the same timeline as the live collector's snapshot.
    collector = SpanCollector()
    collector.attach(Simulator())
    collector.begin("x", "open-a", ("g", "l"))
    collector.complete("x", "done", ("g", "l"), start=0.0, end=1.0)
    collector.begin("x", "open-b", ("g", "l"))
    collector.instant("x", "mark", ("g", "l"), t=0.5)
    path = tmp_path / "trace.jsonl"
    write_jsonl_trace(collector, path)
    assert path.read_text().count('"seq":null') == 2
    loaded = Trace.load(path)
    assert loaded.spans == Trace.from_collector(collector).spans
    assert [s.name for s in loaded.spans] == ["done", "open-a", "open-b"]
