"""Expert-label-driven metric learning and whitened diffusion embeddings."""

__version__ = "0.1.0"
