"""Queue-based Monte-Carlo localization with baseline MCL variants.

A particle filter over the joint distribution of past, present and planned
future robot states in a fixed-lag window, three reference MCL variants, an
exact discrete oracle for validation, and a seeded benchmark harness.
"""
