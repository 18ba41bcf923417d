"""Deterministic simulator for HAPS-assisted BS sleep scheduling.

Quantifies the energy a terrestrial RAN saves when a stratospheric
super-macro BS absorbs the traffic of lightly loaded cells so they can sleep.
"""

# defined before the submodule imports, which may read it
__version__ = "0.1.0"

from .energymodel import EnergyParams, bs_energy, sleep_energy
from .errors import (
    DegenerateTraceError,
    HapsRanError,
    InstanceTooLargeError,
    InvalidArgumentError,
    LoadExceedsCapacityError,
    NoCandidateError,
    UndefinedMetricError,
)
from .hapscapacity import (
    TrialConfig,
    UEPopulation,
    aggregate_capacity,
    path_loss_db,
    sample_ue_population,
)
from .linkbudget import (
    ChannelTables,
    LinkParams,
    building_entry_loss_db,
    fspl_db,
    load_channel_tables,
    los_probability,
    slant_range_km,
    snr_db,
    tx_array_gain_dbi,
    ue_rate_bps,
)
from .montecarlo import StudyConfig, TrialResult, run_study, run_trial, sample_trial_config
from .offload import (
    OffloadConstraints,
    OffloadSchedule,
    baseline_energy,
    exact_oracle_hour,
    offload_hour,
    offload_week,
)
from .traffic import (
    BSStats,
    TrafficScenario,
    WeeklyTrace,
    build_scenario,
    generate_base_traces,
    generate_target_stats,
    load_scenario,
    save_scenario,
    scale_trace,
)
