"""How much training data does task classification need?

Subsamples the fixed train split at increasing per-class sizes, retrains,
and evaluates against the fixed test split. A shortened version of the
5..100-step-5 protocol so it finishes in about a minute.
"""

import time

from hapticauth import (ModelConfig, SynthConfig, TrainConfig, evaluate_experiment, plan_sweep,
                        run_jobs, synth_dataset)

dataset = synth_dataset(SynthConfig(num_users=2, tasks=("a", "b", "c"),
                                    trials_per_task=60, seed=3))
train_cfg = TrainConfig(learning_rate=1e-3, epochs=30, batch_size=16, seed=0,
                        train_per_class=50, test_per_class=10)
model_cfg = ModelConfig(d_model=32, num_heads=4, ffn_dim=32, num_layers=2, seq_len=64)

t0 = time.time()
# each point's jobs (one per user) are trained and scored before the next is
curve = {size: evaluate_experiment(run_jobs(jobs)).mean_accuracy
         for size, jobs in plan_sweep(dataset, train_cfg, sizes=(5, 10, 20, 35, 50),
                                      model_template=model_cfg, users=["u01"])}
print(f"sweep over {len(curve)} sizes in {time.time() - t0:.0f}s\n")
print("train size per class -> test accuracy")
for size, acc in curve.items():
    bar = "#" * int(round(40 * acc))
    print(f"  {size:>4}  {acc:.3f}  {bar}")

(first, first_acc), *_, (last, last_acc) = curve.items()
print(f"\naccuracy grows from {first_acc:.3f} at n={first} "
      f"to {last_acc:.3f} at n={last}")
