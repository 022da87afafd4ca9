"""Frozen test oracles: the pre-fusion BDQ network and agent, the
dict-state fleet controller, the per-branch exploration loop, the scalar
PARTIES and Heracles managers, the per-server placement, the engine's
node step from before install-time arrays and the scalar server the
paper loop stepped before it became the one-node engine. Tests pin the
package against them; the package never imports them."""
