"""The repository's benchmark: layered GARL training and serving workloads."""
