"""Frozen test oracles: the pre-fusion BDQ network and agent, the
dict-state fleet controller, the per-branch exploration loop, the scalar
PARTIES and Heracles managers and the per-server placement. Tests pin the
package against them; the package never imports them."""
