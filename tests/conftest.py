import numpy as np
import pytest

from hapticauth import (ForceTrace, SynthConfig, evaluate_experiment, plan_sweep, run_jobs,
                        synth_dataset)


def make_trace(rng, n=32, user="u01", task="a", trial=0, variant="raw", rate=250.0):
    forces = rng.normal(0.0, 2.0, size=(n, 3)).astype(np.float32)
    return ForceTrace(
        timestamps=(np.arange(n) / rate).astype(np.float32),
        forces=forces,
        user_id=user,
        task_id=task,
        trial_index=trial,
        variant=variant,
        sample_rate=rate,
    )


@pytest.fixture(scope="session")
def small_synth():
    """3 users x 2 tasks x 8 short trials; shared by trainer/eval/CLI tests."""
    cfg = SynthConfig(num_users=3, tasks=("a", "b"), trials_per_task=8,
                      seed=5, duration_range=(0.1, 0.15))
    return synth_dataset(cfg)


@pytest.fixture(scope="session")
def sweep():
    """The sweep as the sweep command runs it: each point's plan_sweep jobs
    through run_jobs and evaluate_experiment, as {size: ExperimentReport}."""
    def run(dataset, train_cfg, **plan_kwargs):
        return {size: evaluate_experiment(run_jobs(jobs))
                for size, jobs in plan_sweep(dataset, train_cfg, **plan_kwargs)}
    return run
