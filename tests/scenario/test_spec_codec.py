"""The field-driven spec codec: strict decoding and lossless round-trips."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoscaling.autoscalers import AUTOSCALERS
from repro.scenario import (FAILURE_KINDS, OBJECTIVE_KINDS, WORKLOAD_KINDS,
                            AutoscalerSpec, BurnRuleSpec, CheckpointSpec,
                            ClusterSpec, FailureSpec, HedgeSpec,
                            ObjectiveSpec, RetrySpec, ScenarioSpec,
                            SchedulerSpec, ShardLinkSpec, ShardOffloadSpec,
                            ShardPlanSpec, ShardSpec, SheddingSpec, SLOSpec,
                            SpecError, TopologySpec, WorkloadSpec)
from repro.scheduling.policies import PLACEMENT_POLICIES, QUEUE_POLICIES
from repro.sim.sharding import ShardConfigError

SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"
GALLERY = sorted(p for p in SPEC_DIR.glob("*.json")
                 if not p.name.endswith(".wfformat.json"))

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
names = st.text("abcdefghij-", min_size=1, max_size=6)
numbers = st.one_of(st.integers(-1000, 1000),
                    st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(st.integers(1, 1000), st.floats(0.001, 1e6))
non_negative = st.one_of(st.integers(0, 1000), st.floats(0.0, 1e6))
json_scalars = st.one_of(st.none(), st.booleans(), st.text(max_size=5),
                         numbers)
params = st.dictionaries(
    st.text(max_size=6),
    st.recursive(json_scalars,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                 max_leaves=6),
    max_size=4)


def kinds(cls, registry):
    return st.builds(cls, kind=st.sampled_from(sorted(registry)),
                     params=params)


workloads = kinds(WorkloadSpec, WORKLOAD_KINDS)
schedulers = st.builds(
    SchedulerSpec, queue=st.sampled_from(sorted(QUEUE_POLICIES)),
    placement=st.sampled_from(sorted(PLACEMENT_POLICIES)),
    backfilling=st.booleans(), strict_head=st.booleans(),
    portfolio=st.lists(st.sampled_from(sorted(QUEUE_POLICIES)),
                       max_size=3).map(tuple),
    portfolio_interval=numbers)
slos = st.builds(
    SLOSpec,
    objectives=st.lists(kinds(ObjectiveSpec, OBJECTIVE_KINDS), min_size=1,
                        max_size=3).map(tuple),
    rules=st.none() | st.lists(st.builds(
        BurnRuleSpec, name=names, long_window=numbers,
        short_window=numbers, threshold=numbers), max_size=2).map(tuple),
    telemetry_interval=positive)
sections = {
    "scheduler": schedulers,
    "autoscaler": st.none() | st.builds(
        AutoscalerSpec, policy=st.sampled_from(sorted(AUTOSCALERS)),
        interval=positive),
    "failures": st.none() | kinds(FailureSpec, FAILURE_KINDS),
    "retries": st.none() | st.builds(
        RetrySpec, max_attempts=st.integers(0, 10), base=numbers,
        cap=numbers, multiplier=numbers, jitter=names),
    "checkpoints": st.none() | st.builds(
        CheckpointSpec, interval=numbers, overhead=numbers,
        min_runtime=numbers),
    "hedging": st.none() | st.builds(
        HedgeSpec, delay_factor=numbers, min_delay=numbers,
        max_hedges=st.integers(0, 4), min_runtime=numbers),
    "shedding": st.none() | st.builds(
        SheddingSpec, threshold=numbers, shed_below=st.integers(0, 4)),
    "slos": st.none() | slos,
}


@st.composite
def topologies_and_plans(draw):
    """A topology plus (sometimes) a shard plan partitioning it exactly."""
    n = draw(st.integers(1, 4))
    clusters = tuple(
        ClusterSpec(f"c{i}", draw(st.integers(1, 64)),
                    cores=draw(st.integers(1, 32)), memory=draw(positive),
                    machines_per_rack=draw(st.integers(1, 16)),
                    speed=draw(positive),
                    link_bandwidth=draw(st.just(1.25e9) | positive))
        for i in range(n))
    topology = TopologySpec(clusters, datacenter=draw(names),
                            operator=draw(names))
    if not draw(st.booleans()):
        return topology, None
    k = draw(st.integers(1, n))
    owners = [f"s{i % k}" for i in range(n)]
    latencies = [draw(positive) for _ in range(k - 1)]
    links = tuple(ShardLinkSpec(f"s{i}", f"s{i + 1}", latencies[i])
                  for i in range(k - 1))
    shards = []
    for j in range(k):
        offload = None
        if k > 1 and draw(st.booleans()):
            peer = f"s{j + 1}" if j + 1 < k else f"s{j - 1}"
            offload = ShardOffloadSpec(peer, draw(st.floats(0.0, 1.0)))
        shards.append(ShardSpec(
            f"s{j}", tuple(c.name for c, o in zip(clusters, owners)
                           if o == f"s{j}"),
            workload=draw(st.none() | workloads), offload=offload))
    epoch = None
    if latencies and draw(st.booleans()):
        epoch = min(latencies) / 2
    return topology, ShardPlanSpec(tuple(shards), links, epoch=epoch)


@st.composite
def scenario_specs(draw):
    topology, plan = draw(topologies_and_plans())
    return ScenarioSpec(
        name=draw(names), topology=topology, workload=draw(workloads),
        seed=draw(st.integers(0, 2**31)),
        observer=draw(st.booleans()),
        duration=draw(st.none() | positive), horizon=draw(positive),
        max_time=draw(numbers),
        availability_slo=draw(st.floats(0.0, 1.0)),
        injection_jitter=draw(non_negative), shards=plan,
        **{key: draw(strategy) for key, strategy in sections.items()})


# ---------------------------------------------------------------------------
# Round-trip
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(spec=scenario_specs())
def test_roundtrip_generated_specs(spec):
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    rehydrated = ScenarioSpec.from_json(spec.to_json())
    assert rehydrated == spec
    assert rehydrated.to_json() == spec.to_json()
    assert rehydrated.fingerprint() == spec.fingerprint()


def test_int_for_float_is_kept_without_coercion(small_spec):
    data = small_spec.to_dict()
    data["horizon"] = 200
    spec = ScenarioSpec.from_dict(data)
    assert spec.horizon == 200 and isinstance(spec.horizon, int)
    assert spec.to_dict()["horizon"] == 200
    assert json.loads(spec.to_json())["horizon"] == 200


def test_omit_default_fields_stay_out_of_the_encoding(small_spec):
    data = small_spec.to_dict()
    assert "shards" not in data
    assert "link_bandwidth" not in data["topology"]["clusters"][0]
    # Always-emitted optional sections keep their explicit null.
    assert data["autoscaler"] is None and data["duration"] is None
    wide = ClusterSpec("w", 2, link_bandwidth=1e10).to_dict()
    assert wide["link_bandwidth"] == 1e10


# ---------------------------------------------------------------------------
# Strict decoding
# ---------------------------------------------------------------------------
def _mutated(spec, path, value):
    data = spec.to_dict()
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    return data


@pytest.mark.parametrize("path, value, where, message", [
    (("horizn",), 1.0, "$.horizn", "did you mean 'horizon'"),
    (("scheduler", "queu"), "sjf", "$.scheduler.queu",
     "did you mean 'queue'"),
    (("scheduler", "queue_policy"), "sjf", "$.scheduler.queue_policy",
     "known keys: backfilling"),
    (("topology", "clusters", 0, "machines"), "ten",
     "$.topology.clusters[0].machines", "expected int, got str 'ten'"),
    (("topology", "clusters", 0, "machines"), True,
     "$.topology.clusters[0].machines", "expected int, got bool"),
    (("topology", "clusters", 0, "machines"), 2.0,
     "$.topology.clusters[0].machines", "expected int, got float"),
    (("horizon",), False, "$.horizon", "expected float, got bool"),
    (("seed",), "7", "$.seed", "expected int"),
    (("scheduler", "backfilling"), "no", "$.scheduler.backfilling",
     "expected bool"),
    (("scheduler",), None, "$.scheduler", "expected an object, got null"),
    (("topology", "clusters"), {}, "$.topology.clusters",
     "expected an array"),
    (("workload", "params"), [], "$.workload.params", "expected an object"),
])
def test_invalid_field_names_its_path(small_spec, path, value, where,
                                      message):
    with pytest.raises(SpecError, match=message) as info:
        ScenarioSpec.from_dict(_mutated(small_spec, path, value))
    assert info.value.path == where
    assert str(info.value).startswith(f"{where}: ")


def test_missing_required_key_names_its_path(small_spec):
    data = small_spec.to_dict()
    del data["topology"]["clusters"][0]["name"]
    with pytest.raises(SpecError, match="missing required key 'name'") as info:
        ScenarioSpec.from_dict(data)
    assert info.value.path == "$.topology.clusters[0].name"


def test_post_init_error_is_reraised_with_path(small_spec):
    data = _mutated(small_spec, ("autoscaler",), {"interval": -1.0})
    with pytest.raises(SpecError, match="interval must be positive") as info:
        ScenarioSpec.from_dict(data)
    assert info.value.path == "$.autoscaler"
    assert isinstance(info.value.__cause__, ValueError)


def test_shard_config_error_propagates_unwrapped():
    data = json.loads((SPEC_DIR / "planet_scale.json").read_text())
    data["shards"]["links"][0]["latency"] = 0.0
    with pytest.raises(ShardConfigError, match="zero-latency") as info:
        ScenarioSpec.from_dict(data)
    assert isinstance(info.value, SpecError)
    assert info.value.path == "$.shards.links[0]"


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "expected an object, got list"),
    ("{broken", "not valid JSON"),
])
def test_from_json_raises_only_spec_errors(text, message):
    with pytest.raises(SpecError, match=message) as info:
        ScenarioSpec.from_json(text)
    assert info.value.path == "$"


# ---------------------------------------------------------------------------
# Mutation fuzz over the gallery
# ---------------------------------------------------------------------------
RETYPES = (None, True, 0, -1, 2.5, "x", [], [1], {}, {"k": 1})


def _paths(node, prefix=()):
    """Every key / index path in ``node``, not descending into params."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        if key != "params":
            yield from _paths(value, prefix + (key,))


def _mutations(data):
    for path in _paths(data):
        for value in RETYPES:
            yield "retype", path, value
        if isinstance(path[-1], str):
            yield "drop", path, None
            yield "rename", path, None


def _apply(data, kind, path, value):
    data = copy.deepcopy(data)
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    if kind == "retype":
        node[last] = value
    elif kind == "drop":
        del node[last]
    else:
        node[last + "_"] = node.pop(last)
    return data


@pytest.mark.parametrize("path", GALLERY, ids=lambda p: p.name)
def test_gallery_mutations_raise_only_spec_errors(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    ScenarioSpec.from_dict(data)
    count = 0
    for kind, key_path, value in _mutations(data):
        mutated = _apply(data, kind, key_path, value)
        count += 1
        try:
            ScenarioSpec.from_json(json.dumps(mutated))
        except SpecError as exc:
            assert exc.path is not None and exc.path.startswith("$")
        else:
            # A renamed key is never silently ignored.
            assert kind != "rename", key_path
    assert count > 100
