"""Prompt construction, response parsing, and chat-endpoint clients.

The prompt templates are reproduced character for character, including their
irregular spacing, because downstream model behavior is sensitive to prompt
bytes and the golden tests pin them. Response parsing never raises: whatever
the model returns degrades into a (possibly empty, possibly flagged) action
plan so every instance can be scored.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import urllib.error
from dataclasses import dataclass, field

from .env import Action, ActionSet, ConstraintSet
from .generate import Grid
from .textgrid import render

SYSTEM_TEMPLATE = (
    "You are an agent in a grid world. The grid world consists of cells. "
    "Each cell may have one unit of energy or no energy at all.{obstacle_prompt} "
    "The goal for you is to collect as much energy as possible and put the "
    "collected energy back in the cell where you started. You have 20 steps."
    "{movement_prompt} You can collect energy from a cell by being in the cell "
    "and TAKE the energy from the cell. If there is no energy in the cell, you "
    "cannot take any energy from it.{energy_limit_prompt} You can not move "
    "across the boundary of the grid world. You can drop all your energy by "
    "DROP.{cost_of_step_prompt} You can use less than 20 steps. Any invalid "
    "step will not cause any change in the grid world."
)
USER_TEMPLATE = (
    "You are given the following as the representation of the grid world, "
    "where A is you, E is energy{user_obstacle_prompt}:\n{grid}"
    "Give your sequence of steps as a list. For example: [STEP, STEP, ...]"
)
OBSTACLE_PROMPT = (
    " Some cells are blocked by obstacles. You cannot move to or through these cells."
)
USER_OBSTACLE_PROMPT = ", O is an obstacle"
MOVEMENT_PROMPT_MU1 = (
    " For each step, you can choose UP, DOWN, LEFT, RIGHT, TAKE, and DROP."
    " UP allows you to move one cell up in one step. The other movements are similar."
)
MOVEMENT_PROMPT_MU2 = (
    " For each step, you can choose UP, DOWN, LEFT, RIGHT, UPLEFT, UPRIGHT,"
    " DOWNLEFT, DOWNRIGHT, TAKE, and DROP."
    " UPLEFT allows you to move diagonally one cell up and left in one step."
    " The other movements are similar."
)
ENERGY_LIMIT_PROMPT = " You can only carry two unit of energy at a time."
# No leading space: the sentence runs straight on from "DROP." in the template.
COST_OF_STEP_PROMPT = "Each step costs you 0.3 unit of energy."

_ACTION_LOOKUP = {a.value: a for a in Action if a is not Action.INVALID_TOKEN}
_LIST_RE = re.compile(r"\[([^\[\]]*)\]")


@dataclass(frozen=True)
class PromptBundle:
    """The two chat messages for one instance, sent at temperature 0."""

    system: str
    user: str
    model: str

    def request_body(self) -> dict:
        return {
            "model": self.model,
            "temperature": 0.0,  # a float: request_key hashes its JSON "0.0"
            "messages": [
                {"role": "system", "content": self.system},
                {"role": "user", "content": self.user},
            ],
        }


@dataclass
class ActionPlan:
    """Parsed action list plus everything needed to audit the parse."""

    actions: list[Action]
    raw_response: str
    parse_notes: list[tuple[str, str]] = field(default_factory=list)


def build_prompt(
    grid: Grid, constraints: ConstraintSet, model: str = "", text: str | None = None
) -> PromptBundle:
    """Assemble the system and user messages for one benchmark instance.

    The obstacle wording follows the grid's generation flag; for hand-built
    grids with no spec it follows whether any obstacle cell is present.
    ``text``, when given, is ``render(grid)`` made once for all of the
    grid's instances.
    """
    if grid.spec is not None:
        has_obstacles = grid.spec.has_obstacles
    else:
        has_obstacles = grid.obstacle_count() > 0
    mu1 = constraints.action_set is ActionSet.MU1
    system = SYSTEM_TEMPLATE.format(
        obstacle_prompt=OBSTACLE_PROMPT if has_obstacles else "",
        movement_prompt=MOVEMENT_PROMPT_MU1 if mu1 else MOVEMENT_PROMPT_MU2,
        energy_limit_prompt=ENERGY_LIMIT_PROMPT if constraints.carry_limit else "",
        cost_of_step_prompt=COST_OF_STEP_PROMPT if constraints.cost_tenths else "",
    )
    user = USER_TEMPLATE.format(
        user_obstacle_prompt=USER_OBSTACLE_PROMPT if has_obstacles else "",
        grid=render(grid) if text is None else text,
    )
    return PromptBundle(system=system, user=user, model=model)


def parse_plan(raw: str) -> ActionPlan:
    """Extract the action list from a model response; total, never raises.

    Takes the last bracketed list in the response, splits on commas, strips
    whitespace and quotes, and matches action names case-insensitively.
    Tokens that resolve to nothing become INVALID_TOKEN (they still consume
    a step when executed) and are recorded in the notes; a response with no
    bracketed list at all yields an empty plan flagged "no-list".
    """
    matches = _LIST_RE.findall(raw)
    if not matches:
        return ActionPlan(actions=[], raw_response=raw, parse_notes=[("", "no-list")])
    body = matches[-1]
    actions: list[Action] = []
    notes: list[tuple[str, str]] = []
    if body.strip() == "":
        return ActionPlan(actions=[], raw_response=raw, parse_notes=notes)
    for token in body.split(","):
        cleaned = token.strip().strip("\"'").strip()
        action = _ACTION_LOOKUP.get(cleaned.upper())
        if action is None:
            actions.append(Action.INVALID_TOKEN)
            notes.append((token.strip(), "unresolved"))
        else:
            actions.append(action)
    return ActionPlan(actions=actions, raw_response=raw, parse_notes=notes)


# What each numeric client setting must satisfy, as a test and as words.
_CONFIG_BOUNDS = {
    "max_retries": (lambda value: value >= 1, " >= 1"),
    "backoff_base": (lambda value: value >= 0, " >= 0"),
    "timeout": (lambda value: value > 0, " > 0"),
    "concurrency": (lambda value: value >= 1, " >= 1"),
}


@dataclass
class ClientConfig:
    """Connection settings for a chat-completions style endpoint."""

    endpoint: str = "https://api.openai.com/v1/chat/completions"
    max_retries: int = 3
    backoff_base: float = 1.0
    timeout: float = 60.0
    concurrency: int = 1
    api_key_env: str = "GRASP_API_KEY"

    @classmethod
    def from_file(cls, path: str) -> "ClientConfig":
        """Settings from a JSON object. Each value has its field's type (an
        int also serves for a float; a bool for nothing) and bound."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"client config {path} must hold a JSON object")
        defaults = vars(cls())
        for key, value in data.items():
            if key not in defaults:
                raise ValueError(f"unknown client config key: {key!r}")
            kind = type(defaults[key])
            typed = type(value) is kind or (kind is float and type(value) is int)
            within, bound = _CONFIG_BOUNDS.get(key, (lambda value: True, ""))
            if not (typed and within(value)):
                raise ValueError(
                    f"client config key {key!r} must be {kind.__name__}{bound}: {value!r}"
                )
        return cls(**data)


class LlmClientError(RuntimeError):
    """Transport or protocol failure that leaves an instance unscored."""


def request_key(body: dict) -> str:
    """Stable identity of one chat request, for cassette lookup."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class HttpChatClient:
    """Minimal chat-completions client with exponential-backoff retries.

    Connection errors, timeouts, 429 and 5xx responses are retried; any
    other error status fails at once.
    """

    def __init__(self, config: ClientConfig, urlopen=None, sleep=time.sleep):
        self.config = config
        self._urlopen = urlopen  # None means urllib.request.urlopen
        self._sleep = sleep

    def api_key(self) -> str:
        """The credential from the environment; LlmClientError without one."""
        api_key = os.environ.get(self.config.api_key_env) or os.environ.get(
            "OPENAI_API_KEY"
        )
        if not api_key:
            raise LlmClientError(
                f"no API credential in ${self.config.api_key_env} or $OPENAI_API_KEY"
            )
        return api_key

    def complete(self, bundle: PromptBundle) -> str:
        # Imported here: cassette and baseline runs never load the HTTP stack.
        import http.client
        import urllib.request

        urlopen = self._urlopen or urllib.request.urlopen
        api_key = self.api_key()
        request = urllib.request.Request(
            self.config.endpoint,
            data=json.dumps(bundle.request_body()).encode("utf-8"),
            headers={
                "Authorization": f"Bearer {api_key}",
                "Content-Type": "application/json",
            },
            method="POST",
        )
        last_error = None
        for attempt in range(self.config.max_retries):
            try:
                with urlopen(request, timeout=self.config.timeout) as response:
                    return _extract_content(response.read())
            except urllib.error.HTTPError as exc:
                if exc.code != 429 and exc.code < 500:
                    body = exc.read().decode("utf-8", errors="replace")
                    raise LlmClientError(
                        f"request failed with status {exc.code}: {body[:200]}"
                    ) from exc
                last_error = f"retryable status {exc.code}"
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc  # URLError, timeouts, dropped or cut-off connections
            if attempt + 1 < self.config.max_retries:
                self._sleep(self.config.backoff_base * 2**attempt)
        raise LlmClientError(
            f"request failed after {self.config.max_retries} attempts: {last_error}"
        )


def _extract_content(body: bytes) -> str:
    try:
        content = json.loads(body)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise LlmClientError(f"malformed response payload: {exc}") from exc
    if not isinstance(content, str):  # a refusal comes with a null content
        raise LlmClientError("malformed response payload: no text content")
    return content


def write_cassette(path: str, entries: list[tuple[dict, str]]) -> None:
    """Write a cassette file from (request body, response text) pairs."""
    records = {
        request_key(body): {"request": body, "response": response}
        for body, response in entries
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"records": records}, handle, indent=2, sort_keys=True)


class CassetteClient:
    """Replays recorded responses keyed by request hash; fully offline."""

    def __init__(self, path: str):
        self.path = path
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        self.records = data.get("records", {}) if isinstance(data, dict) else None
        if not isinstance(self.records, dict):
            raise ValueError(f"cassette {path} must hold an object whose records are an object")
        for key, record in self.records.items():
            if not (isinstance(record, dict) and isinstance(record.get("response"), str)):
                raise ValueError(f"cassette {path} record {key!r} has no string response")

    def complete(self, bundle: PromptBundle) -> str:
        key = request_key(bundle.request_body())
        record = self.records.get(key)
        if record is None:
            raise LlmClientError(f"no cassette record for request {key[:12]}")
        return record["response"]


class RecordingClient:
    """Wraps a live client and adds request/response pairs to a cassette,
    which it reads as ``CassetteClient`` does and rewrites after each response."""

    def __init__(self, inner, path: str):
        self.inner = inner
        self.path = path
        records = CassetteClient(path).records if os.path.exists(path) else {}
        self.entries = [(record["request"], record["response"]) for record in records.values()]
        self._lock = threading.Lock()  # concurrent requests rewrite one file

    def complete(self, bundle: PromptBundle) -> str:
        response = self.inner.complete(bundle)
        with self._lock:
            self.entries.append((bundle.request_body(), response))
            write_cassette(self.path, self.entries)
        return response
