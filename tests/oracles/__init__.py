"""Frozen test oracles: the pre-fusion BDQ network and agent, and the
dict-state fleet controller. Tests pin the package against them; the
package never imports them."""
