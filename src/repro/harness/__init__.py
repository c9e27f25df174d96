"""Fault-tolerant experiment campaign harness.

Runs a paper evaluation as a *campaign*: every (figure x mix x
policy) unit executes in a persistent pool worker with a warm workload
cache, under a timeout and a retry budget; completed results
checkpoint atomically into a manifest-tracked directory, and an
interrupted or partially-failed campaign resumes exactly where it
left off.  A deterministic chaos mode injects worker crashes, hangs
and torn writes so the recovery machinery itself stays under test.

See ``docs/harness.md`` for the campaign lifecycle and on-disk
formats.
"""

from .chaos import (
    ALL_CHAOS_KINDS,
    CHAOS_KINDS,
    ChaosConfig,
    ChaosSpecError,
    backoff_delay,
    parse_chaos_spec,
)
from .checkpoint import (
    ERROR_SCHEMA,
    RESULT_SCHEMA,
    dump_json,
    load_result,
    verify_result,
    write_atomic,
    write_json_atomic,
)
from .errors import (
    FAILURE_KINDS,
    AttemptFailure,
    CampaignConfigError,
    CorruptResultError,
    HarnessError,
    TaskFailureReport,
)
from .manifest import (
    COMPLETE,
    FAILED,
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    PENDING,
    CampaignManifest,
    TaskEntry,
)
from .scheduler import (
    CampaignReport,
    CampaignRunner,
    CampaignSettings,
    run_campaign,
)
from .worker import pool_worker_entry

__all__ = [
    "ALL_CHAOS_KINDS",
    "AttemptFailure",
    "CHAOS_KINDS",
    "COMPLETE",
    "CampaignConfigError",
    "CampaignManifest",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSettings",
    "ChaosConfig",
    "ChaosSpecError",
    "CorruptResultError",
    "ERROR_SCHEMA",
    "FAILED",
    "FAILURE_KINDS",
    "HarnessError",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "PENDING",
    "RESULT_SCHEMA",
    "TaskEntry",
    "TaskFailureReport",
    "backoff_delay",
    "dump_json",
    "load_result",
    "parse_chaos_spec",
    "pool_worker_entry",
    "run_campaign",
    "verify_result",
    "write_atomic",
    "write_json_atomic",
]
