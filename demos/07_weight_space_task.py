"""A miniature end-to-end weight-space experiment (about 15 s on a 2-core host).

Generates a small INR zoo, trains the metanetwork to classify disks vs
squares from raw weights, and shows the point of the whole construction:
the metanetwork's test accuracy is bit-for-bit unchanged on an
orbit-transformed copy of the test set, while a flattened-parameter MLP
collapses on the same copies.

The full-size version of this experiment (200 INRs) runs inside
tests/test_acceptance.py; the CLI exposes the same flow via
`scalegmn gen-zoo` / `scalegmn train` / `scalegmn eval`.
"""

import tempfile
from pathlib import Path

from scalegmn.train import ExperimentConfig, Runner
from scalegmn.zoo import gen_inr_zoo

workdir = Path(tempfile.mkdtemp(prefix="scalegmn-demo-"))
zoo = workdir / "zoo"
print(f"fitting 60 INRs into {zoo} ...")
gen_inr_zoo(zoo, count=60, seed=5)

print("training the metanetwork ...")
cfg = ExperimentConfig(
    task="inr-classify", zoo=str(zoo), out_dir=str(workdir / "gmn"),
    model={"d_v": 24, "d_e": 24, "d_msg": 24, "pe_dim": 8, "n_rounds": 2},
    lr=1e-3, weight_decay=1e-2, epochs=15, batch_size=16, seed=0,
)
runner = Runner(cfg)
runner.train()
runner.load(workdir / "gmn" / "checkpoint")
rep = runner.eval_report("test", with_orbit_copy=True, orbit_seed=99)
print(f"  metanetwork: test accuracy {rep['accuracy']:.2f}, "
      f"orbit-copy accuracy {rep['orbit_accuracy']:.2f}")

print("training the flattened-MLP baseline ...")
bcfg = ExperimentConfig(
    task="inr-classify", zoo=str(zoo), out_dir=str(workdir / "flat"),
    baseline="flat-mlp", lr=1e-3, epochs=15, batch_size=16, seed=0,
)
brunner = Runner(bcfg)
brunner.train()
brunner.load(workdir / "flat" / "checkpoint")
brep = brunner.eval_report("test", with_orbit_copy=True, orbit_seed=99)
print(f"  flat MLP:    test accuracy {brep['accuracy']:.2f}, "
      f"orbit-copy accuracy {brep['orbit_accuracy']:.2f}")
