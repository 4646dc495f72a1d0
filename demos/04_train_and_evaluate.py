"""Train the two experiment families on a small synthetic benchmark and
print the evaluation reports.

Per-task models identify which user produced a trace; per-user models
classify which letter was written. Runs in about a minute with a reduced
model; the paper-scale defaults (d=256, 16 heads, L=512/64, 100 epochs)
are the same code path.
"""

import time

import numpy as np

from hapticauth import (
    ModelConfig,
    SynthConfig,
    TrainConfig,
    evaluate_experiment,
    plan_experiment,
    run_jobs,
    synth_dataset,
)

dataset = synth_dataset(SynthConfig(num_users=3, tasks=("a", "b", "c"),
                                    trials_per_task=50, seed=1))
print(f"benchmark dataset: {len(dataset)} traces, users={dataset.users}, tasks={dataset.tasks}")

train_cfg = TrainConfig(learning_rate=1e-3, epochs=50, batch_size=16, seed=0,
                        train_per_class=40, test_per_class=10)
model_cfg = ModelConfig(d_model=32, num_heads=4, ffn_dim=32, num_layers=2, seq_len=64)

t0 = time.time()
uid_models = list(run_jobs(plan_experiment(dataset, "user-id", train_cfg, model_cfg)))
print(f"\nuser identification: {len(uid_models)} task-specific models "
      f"({time.time() - t0:.0f}s)")
uid = evaluate_experiment(uid_models)
for report in uid.reports:
    print(f"  {report.model_id}: accuracy {report.accuracy:.3f}, "
          f"precision {[round(float(p), 2) for p in report.precision]}")
print(f"  per-user mean precision: "
      f"{ {u: round(p, 3) for u, p in uid.per_user.items()} }")

t0 = time.time()
task_models = list(run_jobs(plan_experiment(dataset, "task", train_cfg, model_cfg)))
print(f"\ntask classification: {len(task_models)} user-specific models "
      f"({time.time() - t0:.0f}s)")
task = evaluate_experiment(task_models)
for report, tm in zip(task.reports, task_models):
    hist = tm.history
    print(f"  {report.model_id}: test accuracy {report.accuracy:.3f} "
          f"(train acc {hist.train_acc[0]:.2f} -> {hist.train_acc[-1]:.2f})")
print(f"  mean accuracy {task.mean_accuracy:.3f}")

print("\nconfusion matrix of", task.reports[0].model_id, "(rows = true task):")
labels = task.reports[0].class_labels
print("      " + "  ".join(f"{c:>3}" for c in labels))
for label, row in zip(labels, task.reports[0].matrix):
    print(f"  {label:>3} " + "  ".join(f"{int(v):>3}" for v in row))
