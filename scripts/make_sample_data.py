#!/usr/bin/env python3
"""Regenerate the small bundled sample dataset (two Gaussians, LIBSVM text).

The committed files under data/ were produced by this script; rerunning it
reproduces them bit for bit.
"""

import os

from isokernel.dataset import save_libsvm
from isokernel.eval import make_two_gaussians


DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def main(out_dir=DATA_DIR):
    """Write sample_train.libsvm and sample_test.libsvm into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    train = make_two_gaussians(600, 8, 3.5, seed=6001, name="sample-train")
    test = make_two_gaussians(400, 8, 3.5, seed=6002, name="sample-test")
    save_libsvm(train, os.path.join(out_dir, "sample_train.libsvm"))
    save_libsvm(test, os.path.join(out_dir, "sample_test.libsvm"))
    print(f"wrote {len(train)} train / {len(test)} test points to {out_dir}")


if __name__ == "__main__":
    main()
