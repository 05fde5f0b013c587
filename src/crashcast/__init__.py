"""Collision-risk forecasting toolkit.

A synthetic two-vehicle intersection simulator, a multi-branch
convolutional-recurrent collision predictor with Monte-Carlo-dropout
uncertainty, and the training/statistics harness around them.
"""
