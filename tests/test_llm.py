import http.client
import io
import json
import random
import socket
import sys
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import PARSER_VECTORS, StubClient, fixture_text, make_grid
from grasp.env import ActionSet, ConstraintSet, run_episode
from grasp.generate import DistributionKind, StartMode, generate_grid
from grasp.llm import (
    CassetteClient,
    ClientConfig,
    HttpChatClient,
    LlmClientError,
    PromptBundle,
    RecordingClient,
    build_prompt,
    parse_plan,
    request_key,
    write_cassette,
)
from grasp.textgrid import parse, render


def _constraints(mu, lim, cost):
    return ConstraintSet(
        action_set=ActionSet.MU1 if mu == 1 else ActionSet.MU2,
        carry_limit=lim or None,
        step_cost=cost,
    )


def _grid_with_obstacles(flag):
    # generated grids carry the obstacle flag that drives prompt wording
    return generate_grid(
        DistributionKind.RANDOM, flag, StartMode.INNER, 0, 1234 + int(flag)
    )


@pytest.mark.parametrize("obs", [0, 1])
@pytest.mark.parametrize("mu", [1, 2])
@pytest.mark.parametrize("lim", [0, 2])
@pytest.mark.parametrize("cost", [0.0, 0.3])
def test_system_prompt_matches_fixture(obs, mu, lim, cost):
    grid = _grid_with_obstacles(bool(obs))
    bundle = build_prompt(grid, _constraints(mu, lim, cost), model="m")
    cost_tag = "0.3" if cost else "0"
    expected = fixture_text(
        "prompts", f"system_obs{obs}_mu{mu}_lim{lim}_cost{cost_tag}.txt"
    )
    assert bundle.system == expected


def test_worked_example_system_and_user():
    grid = parse(fixture_text("grids", "prompt_example.txt"))
    bundle = build_prompt(grid, _constraints(1, 2, 0.3), model="m")
    assert bundle.system == fixture_text("prompts", "example_system.txt")
    assert bundle.user == fixture_text("prompts", "example_user.txt")


def test_user_prompt_embeds_exact_grid_text():
    grid = _grid_with_obstacles(True)
    bundle = build_prompt(grid, _constraints(1, 0, 0.0))
    assert render(grid) in bundle.user
    assert bundle.user.endswith("[STEP, STEP, ...]")
    assert ", O is an obstacle" in bundle.user


def test_user_prompt_without_obstacles():
    grid = _grid_with_obstacles(False)
    bundle = build_prompt(grid, _constraints(1, 0, 0.0))
    assert ", O is an obstacle" not in bundle.user
    assert "obstacle" not in bundle.system


def test_prompt_deterministic_and_temperature_zero():
    grid = _grid_with_obstacles(True)
    first = build_prompt(grid, _constraints(2, 2, 0.3), model="m")
    second = build_prompt(grid, _constraints(2, 2, 0.3), model="m")
    assert first == second
    body = first.request_body()
    # a float: cassettes are keyed by the hash of the body's JSON "0.0"
    assert json.dumps(body["temperature"]) == "0.0"
    assert [m["role"] for m in body["messages"]] == ["system", "user"]


def test_parsed_grid_infers_obstacle_wording():
    grid = make_grid(start=(5, 5), obstacles=[(0, 0)])
    bundle = build_prompt(grid, _constraints(1, 0, 0.0))
    assert "Some cells are blocked by obstacles." in bundle.system


@pytest.mark.parametrize("raw, expected", PARSER_VECTORS)
def test_parse_plan_vectors(raw, expected):
    plan = parse_plan(raw)
    assert plan.actions == expected
    assert plan.raw_response == raw


def test_parse_plan_notes_unresolved_token():
    plan = parse_plan("[UP, FLY, DOWN]")
    assert plan.parse_notes == [("FLY", "unresolved")]


def test_parse_plan_flags_missing_list():
    plan = parse_plan("no plan here")
    assert plan.actions == []
    assert plan.parse_notes == [("", "no-list")]


def test_parse_plan_never_raises_on_fuzz():
    rng = random.Random(0)
    alphabet = "[]UPDOWNtake, dropFLY{}()\n\"'<>!@0123 "
    for _ in range(300):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        plan = parse_plan(raw)
        assert isinstance(plan.actions, list)


class FakeResponse(io.BytesIO):
    """A 200 response whose body is a chat completion, or raw bytes."""

    def __init__(self, content="[UP]", raw=None):
        payload = {"choices": [{"message": {"content": content}}]}
        super().__init__(raw if raw is not None else json.dumps(payload).encode())


def http_error(status, body=b'{"error": "nope"}'):
    return urllib.error.HTTPError(
        "http://x/v1", status, "status", {}, io.BytesIO(body)
    )


class FakeUrlopen:
    """Scripted transport: each entry is an exception or a FakeResponse."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, request, timeout=None):
        self.calls.append(
            {
                "url": request.full_url,
                "method": request.get_method(),
                "json": json.loads(request.data),
                "headers": dict(request.header_items()),
                "timeout": timeout,
            }
        )
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


@pytest.fixture
def bundle():
    return PromptBundle(system="s", user="u", model="test-model")


@pytest.fixture
def credential(monkeypatch):
    monkeypatch.setenv("GRASP_API_KEY", "sk-test")


def test_http_client_success(bundle, credential):
    urlopen = FakeUrlopen([FakeResponse(content="[UP, TAKE]")])
    client = HttpChatClient(ClientConfig(), urlopen=urlopen, sleep=lambda s: None)
    assert client.complete(bundle) == "[UP, TAKE]"
    sent = urlopen.calls[0]
    assert sent["url"] == ClientConfig().endpoint
    assert sent["method"] == "POST"
    assert sent["timeout"] == ClientConfig().timeout
    assert sent["json"]["model"] == "test-model"
    assert sent["json"]["temperature"] == 0
    assert sent["headers"]["Authorization"] == "Bearer sk-test"
    assert sent["headers"]["Content-type"] == "application/json"


def test_http_client_defaults_to_urllib_urlopen(bundle, credential, monkeypatch):
    urlopen = FakeUrlopen([FakeResponse(content="[TAKE]")])
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    client = HttpChatClient(ClientConfig(), sleep=lambda s: None)
    assert client.complete(bundle) == "[TAKE]"
    assert len(urlopen.calls) == 1


def test_http_client_retries_transient_then_succeeds(bundle, credential):
    sleeps = []
    urlopen = FakeUrlopen(
        [
            urllib.error.URLError("boom"),
            http_error(429),
            socket.timeout("timed out"),
            http_error(503),
            http.client.IncompleteRead(b"{"),
            FakeResponse(content="[DOWN]"),
        ]
    )
    client = HttpChatClient(
        ClientConfig(max_retries=6, backoff_base=1.0),
        urlopen=urlopen,
        sleep=sleeps.append,
    )
    assert client.complete(bundle) == "[DOWN]"
    assert len(urlopen.calls) == 6
    assert sleeps == [1.0, 2.0, 4.0, 8.0, 16.0]  # exponential backoff


def test_http_client_fails_after_max_retries(bundle, credential):
    urlopen = FakeUrlopen([urllib.error.URLError("x")] * 2 + [http_error(500)] * 2)
    client = HttpChatClient(
        ClientConfig(max_retries=3), urlopen=urlopen, sleep=lambda s: None
    )
    with pytest.raises(LlmClientError, match="after 3 attempts: retryable status 500"):
        client.complete(bundle)
    assert len(urlopen.calls) == 3


def test_http_client_auth_error_is_immediate(bundle, credential):
    urlopen = FakeUrlopen([http_error(401, b"bad key " + b"x" * 300)])
    client = HttpChatClient(ClientConfig(), urlopen=urlopen, sleep=lambda s: None)
    with pytest.raises(LlmClientError, match="status 401: bad key x") as info:
        client.complete(bundle)
    assert str(info.value).endswith(": bad key " + "x" * 192)  # first 200 characters
    assert len(urlopen.calls) == 1


def test_http_client_requires_credential(bundle, monkeypatch):
    monkeypatch.delenv("GRASP_API_KEY", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    client = HttpChatClient(ClientConfig(), urlopen=FakeUrlopen([]))
    with pytest.raises(LlmClientError, match="credential"):
        client.complete(bundle)


def test_http_client_malformed_payload(bundle, credential):
    # a null content is what chat APIs send beside a refusal
    responses = [
        FakeResponse(raw=b'{"unexpected": []}'), FakeResponse(raw=b"<html>"),
        FakeResponse(content=None),
    ]
    urlopen = FakeUrlopen(responses)
    client = HttpChatClient(ClientConfig(), urlopen=urlopen, sleep=lambda s: None)
    for _ in responses:
        with pytest.raises(LlmClientError, match="malformed"):
            client.complete(bundle)
    assert len(urlopen.calls) == 3


def test_client_config_from_file(tmp_path):
    path = tmp_path / "client.json"
    path.write_text(json.dumps({"endpoint": "http://x/v1", "max_retries": 5, "timeout": 2}))
    config = ClientConfig.from_file(str(path))
    assert config.endpoint == "http://x/v1"
    assert config.max_retries == 5
    assert config.timeout == 2  # an int is fine where the default is a float
    # the model comes only from --agent llm:<model>
    for unknown in ({"nope": 1}, {"model": "m2"}, {"from_file": 1}):
        path.write_text(json.dumps(unknown))
        with pytest.raises(ValueError, match="unknown client config key"):
            ClientConfig.from_file(str(path))
    bad_values = {
        "concurrency": ("2", 0, -1, True, 1.0),
        "max_retries": ("3", 0, True, 2.0),
        "timeout": (0, -1.5, "60", True, None),
        "backoff_base": (-0.5, "1", False),
        "endpoint": (1, None, ["http://x"]),
        "api_key_env": (True, 0),
    }
    for key, values in bad_values.items():
        for bad in values:
            path.write_text(json.dumps({key: bad}))
            with pytest.raises(ValueError, match=f"'{key}' must be"):
                ClientConfig.from_file(str(path))
    path.write_text(json.dumps({"concurrency": 3, "backoff_base": 0, "timeout": 0.5}))
    config = ClientConfig.from_file(str(path))
    assert (config.concurrency, config.backoff_base, config.timeout) == (3, 0, 0.5)


def test_cassette_replay_and_miss(tmp_path, bundle):
    path = tmp_path / "cassette.json"
    write_cassette(str(path), [(bundle.request_body(), "[UP, DOWN]")])
    client = CassetteClient(str(path))
    assert client.complete(bundle) == "[UP, DOWN]"
    other = PromptBundle(system="other", user="u", model="test-model")
    with pytest.raises(LlmClientError, match="no cassette record"):
        client.complete(other)


def test_recording_client_round_trip(tmp_path, bundle):
    path = tmp_path / "rec.json"
    recorder = RecordingClient(StubClient(response="[TAKE]"), str(path))
    assert recorder.complete(bundle) == "[TAKE]"
    replay = CassetteClient(str(path))
    assert replay.complete(bundle) == "[TAKE]"
    stored = json.loads(path.read_text())
    key = request_key(bundle.request_body())
    assert stored["records"][key]["request"]["model"] == "test-model"


def test_recording_client_under_concurrent_requests(tmp_path):
    # Each response rewrites the whole file; without one writer at a time,
    # two rewrites interleave and leave a cassette that does not parse.
    path = tmp_path / "rec.json"
    bundles = [PromptBundle(system="s" * 2000, user=f"u{i}", model="m") for i in range(120)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            path.unlink(missing_ok=True)
            recorder = RecordingClient(StubClient(response="[TAKE]"), str(path))
            with ThreadPoolExecutor(4) as pool:
                list(pool.map(recorder.complete, bundles, timeout=60))
            assert len(json.loads(path.read_text())["records"]) == len(bundles)
    finally:
        sys.setswitchinterval(interval)


def test_stub_client_end_to_end_without_network():
    grid = make_grid(start=(4, 4), energy=[(4, 5)])
    constraints = ConstraintSet()
    bundle = build_prompt(grid, constraints, model="stub")
    client = StubClient(response="Here you go: [RIGHT, TAKE, LEFT, DROP]")
    plan = parse_plan(client.complete(bundle))
    result = run_episode(grid, constraints, plan.actions)
    assert result.score == 1.0
    assert result.length == 4
    assert client.calls == [bundle]
