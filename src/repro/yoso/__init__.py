"""The YOSO execution substrate: roles, committees, bulletin board, and
adversaries.

Implements "abstract YOSO" (paper §2): stateless roles that each speak at
most once, an ideal role-assignment functionality handing out role keys,
and a public bulletin board through which all communication flows (in YOSO,
point-to-point costs the same as broadcast — §3.3).  The runtime *enforces*
the speak-once rule (:class:`~repro.errors.RoleAlreadySpokeError`) and
meters every post (:mod:`repro.accounting`).
"""

from repro.yoso.roles import Role, RoleId, RoleView
from repro.yoso.bulletin import BulletinBoard, EncodedPost, Post
from repro.yoso.committees import Committee
from repro.yoso.assignment import IdealRoleAssignment
from repro.yoso.adversary import (
    Adversary,
    CrashSpec,
    honest_adversary,
    random_corruptions,
)
from repro.yoso.network import ProtocolEnvironment
from repro.yoso.scheduler import AsyncRoundScheduler

__all__ = [
    "Role",
    "RoleId",
    "RoleView",
    "BulletinBoard",
    "EncodedPost",
    "Post",
    "Committee",
    "IdealRoleAssignment",
    "Adversary",
    "CrashSpec",
    "honest_adversary",
    "random_corruptions",
    "ProtocolEnvironment",
    "AsyncRoundScheduler",
]
