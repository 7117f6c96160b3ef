package am

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"umac/internal/audit"
	"umac/internal/core"
)

// This file implements the real-time consent extension (Section V.D):
// "an AM may send a request for such consent by sending an e-mail or SMS
// message to a User and will not issue an authorization token to the
// Requester before such consent is received. This, however, requires the
// interaction between a Requester and an Authorization Manager to be
// asynchronous."

// Notifier delivers out-of-band consent requests to users — the e-mail/SMS
// channel of the paper, simulated in-process by Outbox.
type Notifier interface {
	// Notify delivers a message to the user.
	Notify(user core.UserID, subject, body string)
}

// Outbox is an in-memory Notifier recording deliveries, standing in for the
// e-mail/SMS gateway. The zero value is ready to use.
type Outbox struct {
	mu       sync.Mutex
	messages map[core.UserID][]OutboxMessage
	// OnDeliver, when non-nil, is invoked synchronously for each delivery —
	// examples use it to resolve consent "when the user sees the SMS".
	OnDeliver func(user core.UserID, msg OutboxMessage)
}

// OutboxMessage is one delivered notification.
type OutboxMessage struct {
	Time    time.Time `json:"time"`
	Subject string    `json:"subject"`
	Body    string    `json:"body"`
}

// Notify implements Notifier.
func (o *Outbox) Notify(user core.UserID, subject, body string) {
	msg := OutboxMessage{Time: time.Now(), Subject: subject, Body: body}
	o.mu.Lock()
	if o.messages == nil {
		o.messages = make(map[core.UserID][]OutboxMessage)
	}
	o.messages[user] = append(o.messages[user], msg)
	deliver := o.OnDeliver
	o.mu.Unlock()
	if deliver != nil {
		deliver(user, msg)
	}
}

// Messages returns the user's delivered messages in order.
func (o *Outbox) Messages(user core.UserID) []OutboxMessage {
	o.mu.Lock()
	defer o.mu.Unlock()
	msgs := o.messages[user]
	out := make([]OutboxMessage, len(msgs))
	copy(out, msgs)
	return out
}

var _ Notifier = (*Outbox)(nil)

// consentTicket tracks one pending consent decision.
type consentTicket struct {
	ticket    string
	owner     core.UserID
	req       core.TokenRequest
	createdAt time.Time
	resolved  bool
	approved  bool
	token     core.TokenResponse
}

// openConsent creates a ticket, notifies the owner, and returns the ticket
// ID the Requester polls.
func (a *AM) openConsent(req core.TokenRequest, realm Realm) (string, error) {
	ticket := core.NewID("ticket")
	a.mu.Lock()
	a.consents[ticket] = &consentTicket{
		ticket:    ticket,
		owner:     realm.Owner,
		req:       req,
		createdAt: time.Now(),
	}
	a.mu.Unlock()
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventConsentRequest, Owner: realm.Owner, Host: req.Host,
		Realm: req.Realm, Resource: req.Resource, Requester: req.Requester,
		Subject: req.Subject, Action: req.Action, Detail: ticket,
	})
	if a.notifier != nil {
		a.notifier.Notify(realm.Owner,
			fmt.Sprintf("Consent requested: %s on %s/%s", req.Action, req.Host, req.Resource),
			fmt.Sprintf("Requester %q (subject %q) asks to %s %s in realm %s. Ticket: %s",
				req.Requester, req.Subject, req.Action, req.Resource, req.Realm, ticket))
	}
	return ticket, nil
}

// PendingConsents lists unresolved tickets awaiting the owner, oldest
// first.
func (a *AM) PendingConsents(owner core.UserID) []core.ConsentStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []core.ConsentStatus
	var tickets []*consentTicket
	for _, t := range a.consents {
		if t.owner == owner && !t.resolved {
			tickets = append(tickets, t)
		}
	}
	sort.Slice(tickets, func(i, j int) bool { return tickets[i].createdAt.Before(tickets[j].createdAt) })
	for _, t := range tickets {
		out = append(out, core.ConsentStatus{Ticket: t.ticket})
	}
	return out
}

// ResolveConsent records the owner's decision. On approval the AM
// re-evaluates the original request with consent granted and mints the
// token for the Requester to collect.
func (a *AM) ResolveConsent(actor core.UserID, ticket string, approve bool) error {
	a.mu.Lock()
	t, ok := a.consents[ticket]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("am: unknown consent ticket %s", ticket)
	}
	if !a.CanManage(t.owner, actor) {
		return fmt.Errorf("am: %s may not resolve consents of %s", actor, t.owner)
	}
	release, err := a.gateOwner(t.owner)
	if err != nil {
		return err
	}
	defer release()
	if t.resolved {
		return fmt.Errorf("am: consent ticket %s already resolved", ticket)
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventConsentResolved, Owner: t.owner, Host: t.req.Host,
		Realm: t.req.Realm, Resource: t.req.Resource, Requester: t.req.Requester,
		Detail: fmt.Sprintf("%s approve=%v", ticket, approve),
	})
	if !approve {
		a.mu.Lock()
		t.resolved = true
		t.approved = false
		a.mu.Unlock()
		a.publishConsent(t.owner, ticket, false, core.TokenResponse{})
		return nil
	}
	realm, err := a.LookupRealm(t.req.Host, t.req.Realm)
	if err != nil {
		return err
	}
	// Re-evaluate with consent granted; other conditions (terms, time
	// windows) must still hold.
	res := a.evaluate(t.req, realm, true)
	if res.Decision != core.DecisionPermit {
		a.mu.Lock()
		t.resolved = true
		t.approved = false
		a.mu.Unlock()
		a.publishConsent(t.owner, ticket, false, core.TokenResponse{})
		return fmt.Errorf("%w: consent given but policy still denies: %s", core.ErrAccessDenied, res.Reason)
	}
	tok, err := a.grantToken(t.req, realm, true)
	if err != nil {
		return err
	}
	a.mu.Lock()
	t.resolved = true
	t.approved = true
	t.token = tok
	a.mu.Unlock()
	a.publishConsent(t.owner, ticket, true, tok)
	return nil
}

// publishConsent pushes a ticket resolution onto the event control plane,
// so a requester subscribed to GET /v1/events/consent learns the outcome
// the moment the owner acts — no polling round-trip. The event carries
// the minted token directly: ConsentStatus is consume-on-read, and a
// stream subscriber must not have to race the poll endpoint for it.
func (a *AM) publishConsent(owner core.UserID, ticket string, approved bool, tok core.TokenResponse) {
	a.broker.Publish(core.Event{
		Type:   core.EventConsent,
		Owner:  owner,
		Ticket: ticket,
		Consent: &core.ConsentStatus{
			Ticket:    ticket,
			Resolved:  true,
			Approved:  approved,
			Token:     tok.Token,
			ExpiresAt: tok.ExpiresAt,
		},
	})
}

// ConsentStatus reports a ticket's state; Requesters poll this (the
// asynchronous Requester↔AM interaction). Once resolved-approved, the
// response carries the token and the ticket is consumed.
func (a *AM) ConsentStatus(ticket string) (core.ConsentStatus, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.consents[ticket]
	if !ok {
		return core.ConsentStatus{}, fmt.Errorf("am: unknown consent ticket %s", ticket)
	}
	st := core.ConsentStatus{Ticket: ticket, Resolved: t.resolved, Approved: t.approved}
	if t.resolved && t.approved {
		st.Token = t.token.Token
		st.ExpiresAt = t.token.ExpiresAt
		delete(a.consents, ticket)
	}
	return st, nil
}
