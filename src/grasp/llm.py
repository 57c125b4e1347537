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
    """The two chat messages for one instance, pinned to temperature 0."""

    system: str
    user: str
    model: str
    temperature: float = 0.0

    def request_body(self) -> dict:
        return {
            "model": self.model,
            "temperature": self.temperature,
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

    The obstacle wording follows the grid's generation flag; for grids parsed
    from text (no generation record) it follows whether any obstacle cell is
    present. ``text``, when given, is ``render(grid)`` made once for all of
    the grid's instances.
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


@dataclass
class ClientConfig:
    """Connection settings for a chat-completions style endpoint."""

    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-3.5-turbo-0125"
    max_retries: int = 3
    backoff_base: float = 1.0
    timeout: float = 60.0
    concurrency: int = 1
    api_key_env: str = "GRASP_API_KEY"

    @classmethod
    def from_file(cls, path: str) -> "ClientConfig":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        config = cls()
        for key, value in data.items():
            if not hasattr(config, key):
                raise ValueError(f"unknown client config key: {key!r}")
            if key == "concurrency" and (type(value) is not int or value < 1):
                raise ValueError(f"client config key 'concurrency' must be an int >= 1: {value!r}")
            setattr(config, key, value)
        return config


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

    def complete(self, bundle: PromptBundle) -> str:
        # Imported here: cassette and baseline runs never load the HTTP stack.
        import http.client
        import urllib.request

        urlopen = self._urlopen or urllib.request.urlopen
        api_key = os.environ.get(self.config.api_key_env) or os.environ.get(
            "OPENAI_API_KEY"
        )
        if not api_key:
            raise LlmClientError(
                f"no API credential in ${self.config.api_key_env} or $OPENAI_API_KEY"
            )
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
        return json.loads(body)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise LlmClientError(f"malformed response payload: {exc}") from exc


class CassetteClient:
    """Replays recorded responses keyed by request hash; fully offline."""

    def __init__(self, path: str):
        self.path = path
        with open(path, encoding="utf-8") as handle:
            self.records = json.load(handle).get("records", {})

    def complete(self, bundle: PromptBundle) -> str:
        key = request_key(bundle.request_body())
        record = self.records.get(key)
        if record is None:
            raise LlmClientError(f"no cassette record for request {key[:12]}")
        return record["response"]


class RecordingClient:
    """Wraps a live client and appends request/response pairs to a cassette."""

    def __init__(self, inner, path: str):
        self.inner = inner
        self.path = path
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                self.records = json.load(handle).get("records", {})
        else:
            self.records = {}

    def complete(self, bundle: PromptBundle) -> str:
        body = bundle.request_body()
        response = self.inner.complete(bundle)
        self.records[request_key(body)] = {"request": body, "response": response}
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump({"records": self.records}, handle, indent=2, sort_keys=True)
        return response


def write_cassette(path: str, entries: list[tuple[dict, str]]) -> None:
    """Write a cassette file from (request body, response text) pairs."""
    records = {
        request_key(body): {"request": body, "response": response}
        for body, response in entries
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"records": records}, handle, indent=2, sort_keys=True)
