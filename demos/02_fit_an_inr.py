"""Fit a SIREN to one image and look at the reconstruction.

Implicit neural representations are the datapoints of the weight-space
tasks: each 16x16 shape becomes a small sine network overfitted to it.
"""

import numpy as np

from scalegmn.ffnn import ffnn_forward
from scalegmn.zoo import grid_coords, image_signal, inr_source_image, train_inr

image, label = inr_source_image(zoo_seed=42, index=0)
print(f"source image is a {'disk' if label == 0 else 'square'}")

# train_inr fits a stack of signals as one problem; this stack holds one
(fit,) = train_inr([image_signal(image)], dims=(2, 12, 12, 1), steps=2000,
                   omega0=10.0, rng=np.random.default_rng(0), mse_threshold=2e-3)
print(f"reconstruction MSE after fitting: {fit.mse:.4f}")

recon = ffnn_forward(fit.net, grid_coords(16)).reshape(16, 16)


def ascii_render(img):
    chars = " .:-=+*#%@"
    scaled = np.clip(img, 0, 1) * (len(chars) - 1)
    return "\n".join("".join(chars[int(v)] for v in row) for row in scaled)


print("\ntarget:")
print(ascii_render(image))
print("\nreconstruction:")
print(ascii_render(recon))
