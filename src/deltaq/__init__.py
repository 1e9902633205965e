"""deltaq: iterative magnitude pruning plus event-driven (delta) inference
for small Q-networks, with exact significant-multiplication accounting."""

__version__ = "0.1.0"

from .checkpoint import load_checkpoint, save_prunable
from .config import ConfigError, RunConfig, TrainingConfig, load_config
from .delta import DeltaNetwork, OpCounter, measure_delta_sparsity
from .envs import (Environment, MiniBreakout, MiniInvaders, follow_ball_policy,
                   make_env, random_policy_reward, run_policy)
from .network import (LayerSpec, NetworkSpec, StaticCountReport, WeightSet,
                      build_reference_dqn, build_scaled_dqn, forward,
                      init_weights, static_conv_multiplications,
                      static_dense_multiplications,
                      static_network_multiplications)
from .pruning import (PrunableWeights, SparsityReport, prune_step,
                      report_sparsity, rewind, schedule_fraction)
from .reporting import (RunRecord, build_table, curve_csv,
                        record_from_counters, write_report_files)
from .training import (Batch, EvalResult, PipelineResult, ReplayBuffer,
                       TrainingDiverged, check_fits, double_q_target,
                       evaluate, evaluate_pruned, lottery_pipeline, train)
