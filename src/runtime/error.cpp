#include "runtime/error.hpp"

#include <sstream>

#include "sync/channel.hpp"
#include "sync/transport.hpp"

namespace splitsim::runtime {

std::string to_string(ErrorKind k) {
  switch (k) {
    case ErrorKind::kModelError:
      return "model error";
    case ErrorKind::kDeadlock:
      return "synchronization deadlock";
    case ErrorKind::kTransport:
      return "transport failure";
    case ErrorKind::kCheckpoint:
      return "checkpoint failure";
    case ErrorKind::kSyncViolation:
      return "synchronization violation";
  }
  return "?";
}

SimulationError to_simulation_error(std::exception_ptr e, const std::string& component,
                                    SimTime sim_time) {
  try {
    std::rethrow_exception(e);
  } catch (const SimulationError& err) {
    return err;
  } catch (const sync::SyncViolation& err) {
    return SimulationError(ErrorKind::kSyncViolation, component, sim_time, err.what());
  } catch (const sync::TransportError& err) {
    return SimulationError(ErrorKind::kTransport, component, sim_time, err.what());
  } catch (const std::exception& err) {
    return SimulationError(ErrorKind::kModelError, component, sim_time, err.what());
  } catch (...) {
    return SimulationError(ErrorKind::kModelError, component, sim_time, "unknown exception");
  }
}

namespace {

std::string format_what(ErrorKind kind, const std::string& component, SimTime sim_time,
                        const std::string& cause) {
  std::ostringstream os;
  os << to_string(kind);
  if (!component.empty()) os << " in component '" << component << "'";
  os << " at sim time " << to_ns(sim_time) << " ns: " << cause;
  return os.str();
}

}  // namespace

SimulationError::SimulationError(ErrorKind kind, std::string component, SimTime sim_time,
                                 std::string cause)
    : std::runtime_error(format_what(kind, component, sim_time, cause)),
      kind_(kind),
      component_(std::move(component)),
      sim_time_(sim_time),
      cause_(std::move(cause)) {}

}  // namespace splitsim::runtime
