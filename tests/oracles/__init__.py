"""Scalar reference implementations that parity suites pin production to."""
