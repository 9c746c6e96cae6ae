"""CSV export / import round-trip."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import CpuOccupy
from repro.errors import ConfigError
from repro.monitoring import MetricService
from repro.monitoring.export import (
    read_csv,
    read_jsonl,
    to_csv_text,
    to_jsonl_text,
    write_csv,
    write_jsonl,
)


@pytest.fixture
def collected():
    cluster = Cluster(num_nodes=1)
    service = MetricService(cluster)
    service.attach(end=10)
    CpuOccupy(utilization=60).launch(cluster, "node0", core=0)
    cluster.sim.run(until=10)
    return service


def test_csv_has_header_and_rows(collected):
    text = to_csv_text(collected, "node0")
    lines = text.strip().splitlines()
    assert lines[0].startswith("time,")
    assert "user::procstat" in lines[0]
    assert len(lines) == 1 + len(collected.times)


def test_round_trip_exact(tmp_path, collected):
    path = write_csv(collected, "node0", tmp_path / "node0.csv")
    times, series = read_csv(path)
    assert np.allclose(times, collected.timestamps(), atol=1e-3)
    for metric in collected.metric_names:
        assert np.allclose(series[metric], collected.series("node0", metric))


def test_empty_service_rejected():
    cluster = Cluster(num_nodes=1)
    service = MetricService(cluster)
    with pytest.raises(ConfigError):
        to_csv_text(service, "node0")


def test_read_rejects_foreign_csv(tmp_path):
    bad = tmp_path / "other.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        read_csv(bad)


def test_jsonl_one_record_per_sample(collected):
    text = to_jsonl_text(collected, "node0")
    lines = text.strip().splitlines()
    assert len(lines) == len(collected.times)
    assert all(line.startswith("{") for line in lines)


def test_jsonl_round_trip_exact(tmp_path, collected):
    path = write_jsonl(collected, "node0", tmp_path / "node0.jsonl")
    times, series = read_jsonl(path)
    assert np.allclose(times, collected.timestamps())
    assert sorted(series) == sorted(collected.metric_names)
    for metric in collected.metric_names:
        assert np.array_equal(series[metric], collected.series("node0", metric))


def test_jsonl_deterministic_bytes(collected):
    assert to_jsonl_text(collected, "node0") == to_jsonl_text(collected, "node0")


def test_jsonl_empty_service_rejected():
    cluster = Cluster(num_nodes=1)
    service = MetricService(cluster)
    with pytest.raises(ConfigError):
        to_jsonl_text(service, "node0")


def test_read_jsonl_rejects_foreign_file(tmp_path):
    bad = tmp_path / "other.jsonl"
    bad.write_text('{"a": 1}\n')
    with pytest.raises(ConfigError):
        read_jsonl(bad)


def test_read_jsonl_empty_file(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    times, series = read_jsonl(empty)
    assert times.size == 0 and series == {}


#: damaged metric files → the line their error must name
_DAMAGED = {
    "torn.jsonl": ('{"time": 1.0, "m": 2.0}\n{"time": 2.0, "m"', 2),
    "missing.jsonl": ('{"time": 1.0, "m": 2.0}\n{"time": 2.0}\n', 2),
    "word.jsonl": ('{"time": 1.0, "m": 2.0}\n{"time": 2.0, "m": "x"}\n', 2),
    "empty.csv": ("", 1),
    "word.csv": ("time,m\n1.0,2.0\n2.0,x\n", 3),
    "ragged.csv": ("time,m\n1.0,2.0\n2.0\n", 3),
}


@pytest.mark.parametrize("name", list(_DAMAGED))
def test_damaged_file_is_typed_error(tmp_path, name):
    text, line = _DAMAGED[name]
    path = tmp_path / name
    path.write_text(text)
    reader = read_jsonl if name.endswith(".jsonl") else read_csv
    with pytest.raises(ConfigError, match=f"{name}:{line}:"):
        reader(path)
