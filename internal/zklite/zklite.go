// Package zklite is an in-process coordination service providing the
// Zookeeper primitives Tebis consumes (§3.1, §3.5): a hierarchical
// znode store, ephemeral nodes tied to sessions (failure detection),
// sequence nodes, one-shot watches, and leader election. It stands in
// for the external Zookeeper ensemble (DESIGN.md "Packages and
// substitutions"); like Zookeeper, it is never on the common path of client
// operations.
package zklite

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors reported by the store.
var (
	ErrNoNode        = errors.New("zklite: node does not exist")
	ErrNodeExists    = errors.New("zklite: node already exists")
	ErrNoParent      = errors.New("zklite: parent does not exist")
	ErrNotEmpty      = errors.New("zklite: node has children")
	ErrSessionClosed = errors.New("zklite: session closed")
	ErrBadPath       = errors.New("zklite: malformed path")
)

// CreateFlag modifies Create behaviour.
type CreateFlag int

// Create flags.
const (
	// FlagEphemeral deletes the node when its session closes.
	FlagEphemeral CreateFlag = 1 << iota
	// FlagSequence appends a monotonically increasing counter to the
	// node name.
	FlagSequence
)

// EventType classifies watch events.
type EventType int

// Watch event types.
const (
	EventCreated EventType = iota + 1
	EventDeleted
	EventDataChanged
	EventChildren
)

// Event is delivered (once) to watchers.
type Event struct {
	Type EventType
	Path string
}

type znode struct {
	data     []byte
	owner    int64 // session id for ephemerals; 0 = persistent
	seq      int64 // next sequence number for FlagSequence children
	children map[string]*znode
}

// Store is the coordination service state.
type Store struct {
	mu        sync.Mutex
	root      *znode
	sessions  map[int64]*Session
	nextSess  int64
	nodeWatch map[string][]chan Event // fires on create/delete/set of path
	kidWatch  map[string][]chan Event // fires on child create/delete under path
}

// NewStore creates an empty coordination service.
func NewStore() *Store {
	return &Store{
		root:      &znode{children: map[string]*znode{}},
		sessions:  map[int64]*Session{},
		nextSess:  1,
		nodeWatch: map[string][]chan Event{},
		kidWatch:  map[string][]chan Event{},
	}
}

// Session is one client's connection. Closing it (crash, missed
// heartbeats) deletes its ephemeral nodes and fires watches — the
// failure-detection mechanism Tebis builds on.
type Session struct {
	id     int64
	s      *Store
	closed bool
}

// NewSession opens a session.
func (s *Store) NewSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := &Session{id: s.nextSess, s: s}
	s.nextSess++
	s.sessions[sess.id] = sess
	return sess
}

// split validates a path and returns its components.
func split(path string) ([]string, error) {
	if path == "/" {
		return nil, nil
	}
	if !strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") {
		return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	parts := strings.Split(path[1:], "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
	}
	return parts, nil
}

func parentPath(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// lookup walks to a node. Caller holds s.mu.
func (s *Store) lookup(path string) (*znode, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	n := s.root
	for _, p := range parts {
		child, ok := n.children[p]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoNode, path)
		}
		n = child
	}
	return n, nil
}

// fire delivers one-shot watch events. Caller holds s.mu.
func (s *Store) fire(path string, t EventType) {
	for _, ch := range s.nodeWatch[path] {
		ch <- Event{Type: t, Path: path}
		close(ch)
	}
	delete(s.nodeWatch, path)
	if t == EventCreated || t == EventDeleted {
		parent := parentPath(path)
		for _, ch := range s.kidWatch[parent] {
			ch <- Event{Type: EventChildren, Path: parent}
			close(ch)
		}
		delete(s.kidWatch, parent)
	}
}

// Create makes a new znode and returns its full path (which differs from
// the requested path for sequence nodes).
func (sess *Session) Create(path string, data []byte, flags CreateFlag) (string, error) {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return "", ErrSessionClosed
	}
	parts, err := split(path)
	if err != nil {
		return "", err
	}
	if len(parts) == 0 {
		return "", fmt.Errorf("%w: cannot create root", ErrBadPath)
	}
	parent := s.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := parent.children[p]
		if !ok {
			return "", fmt.Errorf("%w: %s", ErrNoParent, path)
		}
		parent = child
	}
	name := parts[len(parts)-1]
	if flags&FlagSequence != 0 {
		name = fmt.Sprintf("%s%010d", name, parent.seq)
		parent.seq++
	}
	if _, ok := parent.children[name]; ok {
		return "", fmt.Errorf("%w: %s", ErrNodeExists, path)
	}
	n := &znode{data: append([]byte(nil), data...), children: map[string]*znode{}}
	if flags&FlagEphemeral != 0 {
		n.owner = sess.id
	}
	parent.children[name] = n
	full := parentPath(path)
	if full == "/" {
		full = "/" + name
	} else {
		full = full + "/" + name
	}
	s.fire(full, EventCreated)
	return full, nil
}

// Delete removes a znode (which must have no children).
func (sess *Session) Delete(path string) error {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return ErrSessionClosed
	}
	return s.deleteLocked(path)
}

func (s *Store) deleteLocked(path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot delete root", ErrBadPath)
	}
	parent := s.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := parent.children[p]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoNode, path)
		}
		parent = child
	}
	name := parts[len(parts)-1]
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoNode, path)
	}
	if len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, path)
	}
	delete(parent.children, name)
	s.fire(path, EventDeleted)
	return nil
}

// Get returns a znode's data.
func (sess *Session) Get(path string) ([]byte, error) {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return nil, ErrSessionClosed
	}
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), n.data...), nil
}

// Set replaces a znode's data.
func (sess *Session) Set(path string, data []byte) error {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return ErrSessionClosed
	}
	n, err := s.lookup(path)
	if err != nil {
		return err
	}
	n.data = append([]byte(nil), data...)
	s.fire(path, EventDataChanged)
	return nil
}

// Exists reports whether path exists; with watch=true it also returns a
// one-shot channel that fires on the node's next create/delete/set.
func (sess *Session) Exists(path string, watch bool) (bool, <-chan Event, error) {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return false, nil, ErrSessionClosed
	}
	_, err := s.lookup(path)
	exists := err == nil
	if err != nil && !errors.Is(err, ErrNoNode) {
		return false, nil, err
	}
	var ch chan Event
	if watch {
		ch = make(chan Event, 1)
		s.nodeWatch[path] = append(s.nodeWatch[path], ch)
	}
	return exists, ch, nil
}

// Children lists a node's children (sorted); with watch=true it returns
// a one-shot channel firing on the next child create/delete.
func (sess *Session) Children(path string, watch bool) ([]string, <-chan Event, error) {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return nil, nil, ErrSessionClosed
	}
	n, err := s.lookup(path)
	if err != nil {
		return nil, nil, err
	}
	kids := make([]string, 0, len(n.children))
	for name := range n.children {
		kids = append(kids, name)
	}
	sort.Strings(kids)
	var ch chan Event
	if watch {
		ch = make(chan Event, 1)
		s.kidWatch[path] = append(s.kidWatch[path], ch)
	}
	return kids, ch, nil
}

// Close ends the session: its ephemeral nodes are deleted and their
// watchers notified (Zookeeper's heartbeat-expiry behaviour).
func (sess *Session) Close() {
	s := sess.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return
	}
	sess.closed = true
	delete(s.sessions, sess.id)
	// Collect and delete this session's ephemerals (deepest first so
	// children go before parents).
	var paths []string
	var walk func(prefix string, n *znode)
	walk = func(prefix string, n *znode) {
		for name, child := range n.children {
			p := prefix + "/" + name
			walk(p, child)
			if child.owner == sess.id {
				paths = append(paths, p)
			}
		}
	}
	walk("", s.root)
	sort.Slice(paths, func(i, j int) bool { return len(paths[i]) > len(paths[j]) })
	for _, p := range paths {
		_ = s.deleteLocked(p)
	}
}

// CreateAll creates every missing component of path as a persistent
// node (convenience for bootstrap).
func (sess *Session) CreateAll(path string) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, p := range parts {
		cur += "/" + p
		if _, err := sess.Create(cur, nil, 0); err != nil && !errors.Is(err, ErrNodeExists) {
			return err
		}
	}
	return nil
}
