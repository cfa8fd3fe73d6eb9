"""Probabilistic LiDAR range fields.

Learns a differential reflection-probability field from raw (possibly
conflicting) range measurements, integrates it into per-ray cumulative
return distributions, and renders novel views stochastically or by rule.
"""
