"""Model-based test of :class:`AccessControl`: role hierarchy, cycle
refusal, grants, revokes, assignment and the check the gateway's 403s
rest on.

Hypothesis drives one store with random sequences of rules — define a
role (with permissions and parent roles), try to close an inheritance
cycle, grant, revoke, assign, unassign and check — while a reference
model predicts every answer.  The model resolves inheritance as a
transitive closure computed to a fixed point, a different algorithm
from the store's walk, so a hierarchy resolved one level short (or a
cycle let through) shows as a wrong role set or a wrong verdict.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.faults import AccessDenied
from repro.security.access import AccessControl

ROLES = ["guest", "user", "editor", "admin", "auditor"]
PERMISSIONS = ["read", "write", "delete", "audit"]
USERS = st.sampled_from(["ada", "bob"])
ROLE = st.sampled_from(ROLES)
PERMISSION = st.sampled_from(PERMISSIONS)


class ModelAccess:
    """Roles, their parents and grants, and users' direct roles."""

    def __init__(self) -> None:
        self.permissions = {}  # role -> set of permissions
        self.parents = {}  # role -> set of parent roles
        self.users = {}  # user -> set of directly assigned roles

    def ancestors(self):
        """role -> every role it inherits from, by fixed-point closure."""
        closure = {role: set(parents) for role, parents in self.parents.items()}
        changed = True
        while changed:
            changed = False
            for role, reach in closure.items():
                grown = reach.union(*(closure[parent] for parent in reach))
                if grown != reach:
                    closure[role] = grown
                    changed = True
        return closure

    def define_error(self, role, inherits):
        """The refusal ``define_role`` should raise, or None."""
        if any(parent not in self.permissions for parent in inherits):
            return "unknown parent role"
        closure = self.ancestors()
        if any(parent == role or role in closure[parent] for parent in inherits):
            return "cycle"
        return None

    def define(self, role, permissions, inherits):
        self.permissions.setdefault(role, set()).update(permissions)
        self.parents.setdefault(role, set()).update(inherits)

    def roles_of(self, user):
        closure = self.ancestors()
        direct = self.users.get(user, set())
        return frozenset(direct.union(*(closure[role] for role in direct)))

    def permissions_of(self, user):
        return frozenset().union(
            *(self.permissions[role] for role in self.roles_of(user))
        )


class AccessControlModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.access = AccessControl()
        self.model = ModelAccess()

    @rule(
        role=ROLE,
        permissions=st.frozensets(PERMISSION, max_size=2),
        inherits=st.frozensets(ROLE, max_size=2),
    )
    def define(self, role, permissions, inherits):
        expected = self.model.define_error(role, inherits)
        if expected is None:
            self.access.define_role(role, permissions, inherits=inherits)
            self.model.define(role, permissions, inherits)
        else:
            with pytest.raises(ValueError, match=expected):
                self.access.define_role(role, permissions, inherits=inherits)

    @rule(data=st.data())
    def refuse_a_cycle(self, data):
        """Make a role inherit from itself or from one of its heirs: the
        store must refuse, and keep its hierarchy as it was."""
        closure = self.model.ancestors()
        if not closure:
            return
        role = data.draw(st.sampled_from(sorted(closure)))
        heirs = sorted(r for r, reach in closure.items() if role in reach)
        heir = data.draw(st.sampled_from(heirs + [role]))
        with pytest.raises(ValueError, match="cycle"):
            self.access.define_role(role, ["write"], inherits=[heir])

    @rule(role=ROLE, permission=PERMISSION)
    def grant(self, role, permission):
        if role not in self.model.permissions:
            with pytest.raises(ValueError, match="unknown role"):
                self.access.grant_permission(role, permission)
            return
        self.access.grant_permission(role, permission)
        self.model.permissions[role].add(permission)

    @rule(role=ROLE, permission=PERMISSION)
    def revoke(self, role, permission):
        self.access.revoke_permission(role, permission)
        self.model.permissions.get(role, set()).discard(permission)

    @rule(user=USERS, role=ROLE)
    def assign(self, user, role):
        if role not in self.model.permissions:
            with pytest.raises(ValueError, match="unknown role"):
                self.access.assign_role(user, role)
            return
        self.access.assign_role(user, role)
        self.model.users.setdefault(user, set()).add(role)

    @rule(user=USERS, role=ROLE)
    def unassign(self, user, role):
        self.access.unassign_role(user, role)
        self.model.users.get(user, set()).discard(role)

    @rule(user=USERS, permission=PERMISSION)
    def check(self, user, permission):
        allowed = permission in self.model.permissions_of(user)
        assert self.access.is_allowed(user, permission) is allowed
        if allowed:
            self.access.check(user, permission)
        else:
            with pytest.raises(AccessDenied):
                self.access.check(user, permission)

    @invariant()
    def resolves_what_the_model_resolves(self):
        for user in ("ada", "bob"):
            assert self.access.roles_of(user) == self.model.roles_of(user)
            assert self.access.permissions_of(user) == self.model.permissions_of(user)


AccessControlModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestAccessControlModel = AccessControlModel.TestCase
