from itertools import islice

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
    """The sweep as the sweep command runs it: every point's plan_sweep jobs
    through one run_jobs call on `workers` processes, each point evaluated
    from its next models, as {size: ExperimentReport}."""
    def run(dataset, train_cfg, workers=1, **plan_kwargs):
        plan = plan_sweep(dataset, train_cfg, **plan_kwargs)
        models = run_jobs([job for _, jobs in plan for job in jobs], workers)
        return {size: evaluate_experiment(islice(models, len(jobs))) for size, jobs in plan}
    return run
