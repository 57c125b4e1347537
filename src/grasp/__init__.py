"""Deterministic gridworld energy-collection benchmark.

Procedurally generated 11x11 grids, an episode state machine with
configurable agent constraints, random-walk and greedy-search baselines,
a chat-model prompt/parse harness, and an evaluation runner that produces
grouped Length/Energy tables and trace exports.
"""

from .agents import GREEDY, RANDOM_WALK, baseline_plan, random_walk_plan
from .env import (
    Action,
    ActionSet,
    BudgetExhausted,
    ConstraintSet,
    Effect,
    EpisodeResult,
    EpisodeState,
    complement,
    run_episode,
)
from .generate import (
    DistributionKind,
    DistributionParams,
    Grid,
    GridSpec,
    StartMode,
    build_benchmark,
    generate_grid,
    grid_from_dict,
    grid_seed,
    grid_to_dict,
)
from .llm import (
    ActionPlan,
    CassetteClient,
    ClientConfig,
    HttpChatClient,
    LlmClientError,
    PromptBundle,
    build_prompt,
    parse_plan,
)
from .runner import (
    Benchmark,
    InstanceId,
    RunRecord,
    aggregate,
    enumerate_instances,
    load_records,
    run_suite,
    write_benchmark,
)
from .svg import export_trace_svg
from .textgrid import GridParseError, parse, render

__version__ = "0.1.0"
