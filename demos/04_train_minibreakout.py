#!/usr/bin/env python3
"""Train a small Q-network on mini-breakout, then compare the trained
agent over 30 greedy episodes against the random and follow-the-ball
baselines (training itself plays no evaluation episodes). The default
budget (8000 steps, about a minute) shows clear learning; pass a step
budget to train longer. The full 16000-step default config reaches
follow-ball-level play.

usage: python demos/04_train_minibreakout.py [steps]
"""

import sys
import time

import numpy as np

from deltaq import (PrunableWeights, TrainingConfig, build_scaled_dqn,
                    evaluate, follow_ball_policy, init_weights, make_env,
                    random_policy_reward, run_policy, train)

steps = int(sys.argv[1]) if len(sys.argv) > 1 else 8000

env = make_env("mini-breakout", seed=11)
spec = build_scaled_dqn(env.state_shape, env.n_actions)
rng = np.random.default_rng(11)
p = PrunableWeights.create(spec, init_weights(spec, rng), rate=0.2)
cfg = TrainingConfig(steps=steps, epsilon_decay_steps=steps // 2)

t0 = time.time()
result = train(env, spec, p, cfg, rng)
print(f"trained {steps} steps in {time.time() - t0:.0f}s "
      f"({result.gradient_steps} gradient steps)")

agent = evaluate(env.fork(100), spec, p.live, episodes=30).mean_reward
rand = random_policy_reward(env.fork(101), 30, seed=101)
hand = run_policy(env.fork(102), follow_ball_policy, 30)
print(f"\nmean reward over 30 episodes:")
print(f"  random policy      {rand:6.2f}")
print(f"  trained agent      {agent:6.2f}")
print(f"  follow-ball policy {hand:6.2f}")
