"""coevo: co-evolution of heuristic programs and their mutation prompts."""

from .archive import Descriptor, EvolutionState, IslandArchive, migrate
from .evaluator import Candidate, EvalReport, RunnerConfig, evaluate_candidate
from .experience import ExperienceRecord, ExperienceStore, summarize
from .heuristics import Packing, Tour
from .instances import BppInstance, InstanceSet, TspInstance, load_benchmark
from .llm import CompletionRequest, CompletionResponse, HttpBackend, MockBackend, complete
from .oracles import OracleResult, brute_force_tsp, exact_bpp, held_karp, relative_error
from .orchestrator import EvolutionRun, RunConfig, RunReport
from .promptevo import PromptState, Strategy, compose_prompt, sample_strategy, strategy_pool

__version__ = "0.1.0"

__all__ = [
    "BppInstance",
    "Candidate",
    "CompletionRequest",
    "CompletionResponse",
    "Descriptor",
    "EvalReport",
    "EvolutionRun",
    "EvolutionState",
    "ExperienceRecord",
    "ExperienceStore",
    "HttpBackend",
    "InstanceSet",
    "IslandArchive",
    "MockBackend",
    "OracleResult",
    "Packing",
    "PromptState",
    "RunConfig",
    "RunReport",
    "RunnerConfig",
    "Strategy",
    "Tour",
    "TspInstance",
    "brute_force_tsp",
    "compose_prompt",
    "complete",
    "evaluate_candidate",
    "exact_bpp",
    "held_karp",
    "load_benchmark",
    "migrate",
    "relative_error",
    "sample_strategy",
    "strategy_pool",
    "summarize",
]
