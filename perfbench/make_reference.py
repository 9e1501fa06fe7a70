"""Write perfbench/reference.json: the first-step loss of every train_step
cell on the fixed reference inputs. Rerun only when a change is meant to
alter the training numerics, and say so in that change.

    python3 perfbench/make_reference.py
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import workloads
    losses = workloads.TrainStep(workloads.REFERENCE_SEED, "").first_step_losses()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.REFERENCE_SEED, "train_step_first_loss": losses},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(losses, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
